//! SVG back-end: rasterizes a frame's command stream to an SVG document.
//!
//! The document is appended into one `String`: markup as static text,
//! integers through a digit writer, and text through a one-pass escape.

use crate::device::{PlotCommand, RASTER_SIZE};
use crate::frame::Frame;

// The markup below spells the raster size (and its half) out.
const _: () = assert!(RASTER_SIZE == 1024);

/// Renders a frame as a standalone SVG document.
///
/// The plotter raster's origin is lower-left; SVG's is upper-left, so the
/// y axis is flipped here and nowhere else.
///
/// A path runs from one move to the next and becomes one `<polyline>`,
/// written when the path ends, so a label exposed mid-path comes before
/// it. A path of fewer than two points writes nothing.
///
/// # Examples
///
/// ```
/// use cafemio_plotter::{Frame, RasterPoint};
/// let mut f = Frame::new("DEMO");
/// f.move_to(RasterPoint::new(0, 0));
/// f.draw_to(RasterPoint::new(100, 100));
/// let svg = cafemio_plotter::render_svg(&f);
/// assert!(svg.starts_with("<svg"));
/// assert!(svg.contains("polyline"));
/// ```
pub fn render_svg(frame: &Frame) -> String {
    let mut out = String::new();
    // Title lines across the top, like the figures in the report.
    out.push_str(concat!(
        "<svg xmlns=\"http://www.w3.org/2000/svg\" width=\"1024\" height=\"1024\" ",
        "viewBox=\"0 0 1024 1024\">\n",
        "  <rect width=\"1024\" height=\"1024\" fill=\"#101408\"/>\n",
        "  <text x=\"512\" y=\"28\" fill=\"#d8e8c0\" font-family=\"monospace\" ",
        "font-size=\"20\" text-anchor=\"middle\">",
    ));
    push_escaped(&mut out, frame.title());
    out.push_str("</text>\n");
    if let Some(sub) = frame.subtitle() {
        out.push_str(concat!(
            "  <text x=\"512\" y=\"52\" fill=\"#d8e8c0\" font-family=\"monospace\" ",
            "font-size=\"16\" text-anchor=\"middle\">",
        ));
        push_escaped(&mut out, sub);
        out.push_str("</text>\n");
    }

    let commands = frame.commands();
    // The open path is `commands[path..]`, holding `points` points.
    let mut path = 0;
    let mut points = 0;
    for (i, cmd) in commands.iter().enumerate() {
        match cmd {
            PlotCommand::MoveTo(_) => {
                push_polyline(&mut out, &commands[path..i], points);
                path = i;
                points = 1;
            }
            PlotCommand::DrawTo(_) => points += 1,
            PlotCommand::Text { at, text, size } => {
                out.push_str("  <text x=\"");
                push_u32(&mut out, at.x());
                out.push_str("\" y=\"");
                push_u32(&mut out, flip(at.y()));
                out.push_str("\" fill=\"#f0e890\" font-family=\"monospace\" font-size=\"");
                push_u32(&mut out, *size);
                out.push_str("\">");
                push_escaped(&mut out, text);
                out.push_str("</text>\n");
            }
        }
    }
    push_polyline(&mut out, &commands[path..], points);
    out.push_str("</svg>\n");
    out
}

/// Writes one path's `<polyline>`, if it has at least two points.
fn push_polyline(out: &mut String, path: &[PlotCommand], points: usize) {
    if points < 2 {
        return;
    }
    out.push_str("  <polyline points=\"");
    for cmd in path {
        if let PlotCommand::MoveTo(p) | PlotCommand::DrawTo(p) = cmd {
            push_u32(out, p.x());
            out.push(',');
            push_u32(out, flip(p.y()));
            out.push(' ');
        }
    }
    // No separator after the last point.
    out.pop();
    out.push_str("\" fill=\"none\" stroke=\"#d8e8c0\" stroke-width=\"1\"/>\n");
}

/// Appends `n` in decimal. Points are most of a document, and `write!`
/// takes about twice as long over them.
fn push_u32(out: &mut String, mut n: u32) {
    let mut digits = [0u8; 10];
    let mut start = digits.len();
    loop {
        start -= 1;
        digits[start] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    for &digit in &digits[start..] {
        out.push(char::from(digit));
    }
}

/// Appends `text` with `&`, `<` and `>` escaped.
fn push_escaped(out: &mut String, text: &str) {
    let mut plain = 0;
    for (i, byte) in text.bytes().enumerate() {
        let entity = match byte {
            b'&' => "&amp;",
            b'<' => "&lt;",
            b'>' => "&gt;",
            _ => continue,
        };
        out.push_str(&text[plain..i]);
        out.push_str(entity);
        plain = i + 1;
    }
    out.push_str(&text[plain..]);
}

fn flip(y: u32) -> u32 {
    RASTER_SIZE - 1 - y
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::RasterPoint;

    #[test]
    fn renders_title_and_vectors() {
        let mut f = Frame::new("GLASS JOINT");
        f.move_to(RasterPoint::new(10, 10));
        f.draw_to(RasterPoint::new(20, 20));
        f.draw_to(RasterPoint::new(30, 10));
        let svg = render_svg(&f);
        assert!(svg.contains("GLASS JOINT"));
        // Three points collapse into one polyline element.
        assert_eq!(svg.matches("<polyline").count(), 1);
    }

    #[test]
    fn y_axis_is_flipped() {
        let mut f = Frame::new("T");
        f.move_to(RasterPoint::new(0, 0));
        f.draw_to(RasterPoint::new(0, 100));
        let svg = render_svg(&f);
        // Raster y=0 maps to SVG y=1023.
        assert!(svg.contains("0,1023"));
        assert!(svg.contains("0,923"));
    }

    #[test]
    fn text_escaped() {
        let mut f = Frame::new("A<B");
        f.text_at(RasterPoint::new(1, 1), "R&D");
        let svg = render_svg(&f);
        assert!(svg.contains("A&lt;B"));
        assert!(svg.contains("R&amp;D"));
    }

    #[test]
    fn subtitle_rendered_when_present() {
        let mut f = Frame::new("T");
        f.set_subtitle("CONTOUR INTERVAL IS 10.");
        assert!(render_svg(&f).contains("CONTOUR INTERVAL IS 10."));
    }

    /// Everything before the title text of a frame's first line.
    const PREAMBLE: &str = concat!(
        "<svg xmlns=\"http://www.w3.org/2000/svg\" width=\"1024\" height=\"1024\" ",
        "viewBox=\"0 0 1024 1024\">\n",
        "  <rect width=\"1024\" height=\"1024\" fill=\"#101408\"/>\n",
        "  <text x=\"512\" y=\"28\" fill=\"#d8e8c0\" font-family=\"monospace\" ",
        "font-size=\"20\" text-anchor=\"middle\">",
    );

    /// The fixed head of a frame titled `title`, without a subtitle.
    fn head(title: &str) -> String {
        format!("{PREAMBLE}{title}</text>\n")
    }

    #[test]
    fn text_inside_a_path_comes_before_its_polyline() {
        let mut f = Frame::new("T");
        f.move_to(RasterPoint::new(0, 0));
        f.draw_to(RasterPoint::new(10, 0));
        f.text_at(RasterPoint::new(5, 5), "A");
        f.draw_to(RasterPoint::new(20, 0));
        let want = head("T")
            + concat!(
                "  <text x=\"5\" y=\"1018\" fill=\"#f0e890\" font-family=\"monospace\" ",
                "font-size=\"12\">A</text>\n",
                "  <polyline points=\"0,1023 10,1023 20,1023\" fill=\"none\" ",
                "stroke=\"#d8e8c0\" stroke-width=\"1\"/>\n",
                "</svg>\n",
            );
        assert_eq!(render_svg(&f), want);
    }

    #[test]
    fn a_path_of_one_point_writes_nothing() {
        let mut f = Frame::new("T");
        f.move_to(RasterPoint::new(7, 7));
        assert_eq!(render_svg(&f), head("T") + "</svg>\n");
        // A one-point path ended by the next move is dropped too.
        f.text_at(RasterPoint::new(1, 1), "B");
        f.move_to(RasterPoint::new(2, 2));
        f.draw_to(RasterPoint::new(3, 3));
        let want = head("T")
            + concat!(
                "  <text x=\"1\" y=\"1022\" fill=\"#f0e890\" font-family=\"monospace\" ",
                "font-size=\"12\">B</text>\n",
                "  <polyline points=\"2,1021 3,1020\" fill=\"none\" ",
                "stroke=\"#d8e8c0\" stroke-width=\"1\"/>\n",
                "</svg>\n",
            );
        assert_eq!(render_svg(&f), want);
    }

    #[test]
    fn markup_characters_are_escaped_everywhere() {
        let mut f = Frame::new("<&>");
        f.set_subtitle("a&b<c>d");
        f.text_at(RasterPoint::new(0, 0), "&&<>");
        let want = head("&lt;&amp;&gt;")
            + concat!(
                "  <text x=\"512\" y=\"52\" fill=\"#d8e8c0\" font-family=\"monospace\" ",
                "font-size=\"16\" text-anchor=\"middle\">a&amp;b&lt;c&gt;d</text>\n",
                "  <text x=\"0\" y=\"1023\" fill=\"#f0e890\" font-family=\"monospace\" ",
                "font-size=\"12\">&amp;&amp;&lt;&gt;</text>\n",
                "</svg>\n",
            );
        assert_eq!(render_svg(&f), want);
    }

    #[test]
    fn raster_corners_render_as_digits() {
        let mut f = Frame::new("T");
        f.move_to(RasterPoint::new(0, 1023));
        f.draw_to(RasterPoint::new(1023, 0));
        f.draw_to(RasterPoint::new(0, 0));
        let want = head("T")
            + concat!(
                "  <polyline points=\"0,0 1023,1023 0,1023\" fill=\"none\" ",
                "stroke=\"#d8e8c0\" stroke-width=\"1\"/>\n",
                "</svg>\n",
            );
        assert_eq!(render_svg(&f), want);
    }

    #[test]
    fn disjoint_strokes_make_separate_polylines() {
        let mut f = Frame::new("T");
        f.move_to(RasterPoint::new(0, 0));
        f.draw_to(RasterPoint::new(10, 0));
        f.move_to(RasterPoint::new(50, 50));
        f.draw_to(RasterPoint::new(60, 50));
        assert_eq!(render_svg(&f).matches("<polyline").count(), 2);
    }
}
