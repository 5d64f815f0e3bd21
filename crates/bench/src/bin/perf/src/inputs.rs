//! Seeded input generation. Every deck and request a workload sends is a
//! function of `--seed` alone; the program under test only ever sees
//! the generated text.

use std::collections::{HashMap, VecDeque};

use cafemio::cards::Deck;
use cafemio::geom::Point;
use cafemio::idlz::deck::{parse_deck_with_layout, write_deck};
use cafemio::idlz::{IdealizationSpec, ShapeLine, Subdivision};
use cafemio_bench::mutate::SplitMix64;

/// Requests per `edit_replay` analyst session.
pub const SESSION_LEN: usize = 40;

/// The fixed contour-interval edits: the deck's automatic interval times
/// one of these.
pub const FACTORS: [f64; 8] = [0.5, 0.625, 0.75, 1.25, 1.5, 2.0, 2.5, 3.0];

/// How many distinct recent requests a `serve_mix` resubmit draws from.
pub const RECENT: usize = 16;

/// Fisher–Yates shuffle.
pub fn shuffle<T>(items: &mut [T], rng: &mut SplitMix64) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.below(i + 1));
    }
}

/// One editable field of a Type-6 shape-line card: the card's line in
/// the deck text and which of its five `F8.4` fields (0–3 the end-point
/// coordinates, 4 the radius).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Site {
    line: usize,
    field: usize,
}

/// Columns of the `field`-th real in a `(4I5, 5F8.4)` card.
fn columns(field: usize) -> std::ops::Range<usize> {
    let start = 20 + 8 * field;
    start..start + 8
}

/// The fields a deck edit may move: every coordinate of a straight
/// (radius 0) shape line, and the radius of every arc. Moving an arc's
/// end point could break its sweep limit; growing its radius only
/// flattens it.
fn edit_sites(text: &str) -> Result<Vec<Site>, String> {
    let deck = Deck::from_text(text).map_err(|e| e.to_string())?;
    let (_, layouts) = parse_deck_with_layout(&deck).map_err(|e| e.to_string())?;
    let lines: Vec<&str> = text.lines().collect();
    let mut sites = Vec::new();
    for group in layouts.iter().flat_map(|l| &l.shape_groups) {
        for &line in &group.line_cards {
            match lines[line]
                .get(columns(4))
                .and_then(|f| f.trim().parse::<f64>().ok())
            {
                Some(0.0) => sites.extend((0..4).map(|field| Site { line, field })),
                Some(_) => sites.push(Site { line, field: 4 }),
                None => {}
            }
        }
    }
    Ok(sites)
}

/// `text` with one field moved by `k`·1e-4 (a radius away from zero) —
/// always a new text for a new `k`, and a small enough move to keep the
/// mesh valid.
fn apply_edit(text: &str, site: Site, k: u64) -> Option<String> {
    let mut lines: Vec<String> = text.lines().map(str::to_owned).collect();
    let line = lines.get_mut(site.line)?;
    let old: f64 = line.get(columns(site.field))?.trim().parse().ok()?;
    let step = if site.field == 4 { old.signum() } else { 1.0 };
    let field = format!("{:8.4}", old + step * k as f64 * 1e-4);
    if field.len() != 8 {
        return None;
    }
    line.replace_range(columns(site.field), &field);
    let mut out = lines.join("\n");
    out.push('\n');
    Some(out)
}

/// Deck texts a stream refers to by index. The first entries are the
/// unedited base decks, in catalog order.
#[derive(Debug, Clone, PartialEq)]
pub struct Variants {
    /// Deck text of each variant.
    pub texts: Vec<String>,
    /// The base deck each variant was edited from.
    pub base: Vec<usize>,
}

/// Makes fresh deck edits: each edit moves one shape-line field of a base
/// deck by a per-field counter, so no text repeats.
struct Editor {
    variants: Variants,
    sites: Vec<Vec<Site>>,
    counters: HashMap<(usize, usize), u64>,
}

impl Editor {
    fn new(decks: &[(&str, String)]) -> Result<Editor, String> {
        let sites = decks
            .iter()
            .map(|(name, text)| match edit_sites(text) {
                Ok(sites) if !sites.is_empty() => Ok(sites),
                Ok(_) => Err(format!("{name}: no shape line to edit")),
                Err(e) => Err(format!("{name}: {e}")),
            })
            .collect::<Result<Vec<_>, String>>()?;
        Ok(Editor {
            variants: Variants {
                texts: decks.iter().map(|(_, text)| text.clone()).collect(),
                base: (0..decks.len()).collect(),
            },
            sites,
            counters: HashMap::new(),
        })
    }

    /// A new variant of base deck `deck`; returns its index.
    fn edit(&mut self, deck: usize, rng: &mut SplitMix64) -> Result<usize, String> {
        let choice = rng.below(self.sites[deck].len());
        let k = self.counters.entry((deck, choice)).or_insert(0);
        *k += 1;
        let text = apply_edit(&self.variants.texts[deck], self.sites[deck][choice], *k)
            .ok_or_else(|| format!("deck {deck}: edit {choice} does not fit its field"))?;
        self.variants.texts.push(text);
        self.variants.base.push(deck);
        Ok(self.variants.texts.len() - 1)
    }
}

/// One `edit_replay` request: a deck variant, contoured at the automatic
/// interval (`factor: None`) or at the automatic interval times
/// `FACTORS[factor]`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EditRequest {
    /// Index into [`Variants`].
    pub variant: usize,
    /// Index into [`FACTORS`], or the automatic interval.
    pub factor: Option<usize>,
}

/// `requests` analyst-session requests: sessions of [`SESSION_LEN`], one
/// per deck in each round, in a seed-shuffled order — so every run of
/// whole rounds, whatever the seed, has the same deck mix. After a
/// session's first request, each request is with probability 0.7 a
/// resubmit of a distinct request already made in the session, 0.2 a
/// contour-interval edit of the current deck, and 0.1 a fresh deck edit
/// (keeping the current interval).
pub fn edit_stream(
    decks: &[(&str, String)],
    seed: u64,
    requests: usize,
) -> Result<(Variants, Vec<EditRequest>), String> {
    let mut editor = Editor::new(decks)?;
    let mut rng = SplitMix64::new(seed);
    let mut stream = Vec::with_capacity(requests);
    let mut round = Vec::new();
    while stream.len() < requests {
        if round.is_empty() {
            round = (0..decks.len()).collect();
            shuffle(&mut round, &mut rng);
        }
        let Some(deck) = round.pop() else {
            return Err("no decks to edit".into());
        };
        let mut current = EditRequest {
            variant: deck,
            factor: None,
        };
        let mut made = vec![current];
        stream.push(current);
        for _ in 1..SESSION_LEN {
            if stream.len() == requests {
                break;
            }
            let roll = rng.below(10);
            let request = if roll < 7 {
                made[rng.below(made.len())]
            } else {
                if roll < 9 {
                    current.factor = Some(rng.below(FACTORS.len()));
                } else {
                    current.variant = editor.edit(deck, &mut rng)?;
                }
                current
            };
            if !made.contains(&request) {
                made.push(request);
            }
            stream.push(request);
        }
    }
    Ok((editor.variants, stream))
}

/// Requests per `serve_mix` round for `decks` base decks: one fresh edit
/// of every deck, 30 % of the round.
pub fn serve_round_len(decks: usize) -> usize {
    (decks * 10).div_ceil(3)
}

/// `requests` `serve_mix` deck submissions, in rounds of
/// [`serve_round_len`]: each round holds one fresh edit of every base
/// deck, at seed-chosen places and in a seed-shuffled order, and fills
/// the rest with resubmits of seed-chosen decks among the [`RECENT`] most
/// recent distinct ones (the base decks, shuffled, to begin with). Every
/// run of whole rounds, whatever the seed, has the same mix of work.
pub fn serve_stream(
    decks: &[(&str, String)],
    seed: u64,
    requests: usize,
) -> Result<(Variants, Vec<usize>), String> {
    let mut editor = Editor::new(decks)?;
    let mut rng = SplitMix64::new(seed);
    let mut recent: Vec<usize> = (0..decks.len()).collect();
    shuffle(&mut recent, &mut rng);
    let mut recent: VecDeque<usize> = recent.into_iter().collect();
    let mut stream = Vec::with_capacity(requests);
    while stream.len() < requests {
        let mut fresh: Vec<bool> = (0..serve_round_len(decks.len()))
            .map(|i| i < decks.len())
            .collect();
        shuffle(&mut fresh, &mut rng);
        let mut order: Vec<usize> = (0..decks.len()).collect();
        shuffle(&mut order, &mut rng);
        for fresh in fresh {
            if stream.len() == requests {
                break;
            }
            match fresh.then(|| order.pop()).flatten() {
                Some(deck) => {
                    let variant = editor.edit(deck, &mut rng)?;
                    recent.push_back(variant);
                    while recent.len() > RECENT {
                        recent.pop_front();
                    }
                    stream.push(variant);
                }
                None => stream.push(recent[rng.below(recent.len())]),
            }
        }
    }
    Ok((editor.variants, stream))
}

/// Grid width of the `large_plate` plate (and of each band). Small
/// enough that the CG working set stays in the core's own caches: a
/// 12 × 12 band ran 9–15 % slower beside a memory-streaming neighbour,
/// this one within 3 %.
pub const PLATE_WIDTH: i32 = 8;
/// Grid height of one band.
pub const PLATE_BAND_HEIGHT: i32 = 8;
/// Bands stacked vertically in the timed plate; the warm-up plate has
/// one, a sixteenth of the work.
pub const PLATE_BANDS: i32 = 16;

/// The `large_plate` deck: `bands` rectangular subdivisions stacked
/// vertically, one grid unit per length unit, so adjacent bands share
/// their boundary row (`2·WIDTH·BAND_HEIGHT` elements per band). Plots,
/// punching and renumbering are off, as in the large-mesh smoke test.
pub fn plate_deck(bands: i32) -> Result<String, String> {
    let mut spec = IdealizationSpec::new("PERF LARGE PLATE");
    let mut options = spec.options();
    options.plots = false;
    options.punch = false;
    options.renumber = false;
    spec.set_options(options);
    for band in 0..bands {
        let id = (band + 1) as usize;
        let (lo, hi) = (band * PLATE_BAND_HEIGHT, (band + 1) * PLATE_BAND_HEIGHT);
        let subdivision =
            Subdivision::rectangular(id, (0, lo), (PLATE_WIDTH, hi)).map_err(|e| e.to_string())?;
        spec.add_subdivision(subdivision);
        for l in [lo, hi] {
            spec.add_shape_line(
                id,
                ShapeLine::straight(
                    (0, l),
                    (PLATE_WIDTH, l),
                    Point::new(0.0, f64::from(l)),
                    Point::new(f64::from(PLATE_WIDTH), f64::from(l)),
                ),
            );
        }
    }
    Ok(write_deck(&[spec]).map_err(|e| e.to_string())?.to_text())
}

/// The `large_plate` load case: the upward traction on the top row,
/// `10 · 2^k` for a seed-chosen `k` in `-3..=3`. A power-of-two scale
/// scales every floating-point step of the solve exactly, so the seed
/// changes the input (and its SVG) without changing the CG iteration
/// count; any other scale moves the last iterations before the 1e-12
/// tolerance and with them about 10 % of the work.
pub fn plate_load(seed: u64) -> f64 {
    let k = SplitMix64::new(seed).below(7) as i32 - 3;
    10.0 * 2f64.powi(k)
}

#[cfg(test)]
mod tests {
    use super::*;

    const TWO_BOXES: &str = concat!(
        "    1\n",
        "TWO BOXES\n",
        "    1    1    1    1\n",
        "    1    0    0    4    2         0    0\n",
        "    1    2\n",
        "    0    0    4    0  0.0000  0.0000  2.0000  0.0000  0.0000\n",
        "    0    2    4    2  0.0000  0.5000  2.0000  0.5000  0.0000\n",
        "(2F9.5, 51X, I3, 5X, I3)\n",
        "(3I5, 62X, I3)\n",
    );

    fn decks() -> Vec<(&'static str, String)> {
        vec![
            ("a", TWO_BOXES.to_owned()),
            ("b", TWO_BOXES.replace("0.5000", "0.7500")),
        ]
    }

    #[test]
    fn edits_move_one_coordinate_and_never_repeat() {
        let sites = edit_sites(TWO_BOXES).expect("deck parses");
        assert_eq!(sites.len(), 8, "two straight lines, four coordinates each");
        let once = apply_edit(TWO_BOXES, sites[1], 1).expect("fits");
        let twice = apply_edit(TWO_BOXES, sites[1], 2).expect("fits");
        assert_ne!(once, twice);
        assert_eq!(
            once.lines().nth(5),
            Some("    0    0    4    0  0.0000  0.0001  2.0000  0.0000  0.0000")
        );
        let changed = once
            .lines()
            .zip(TWO_BOXES.lines())
            .filter(|(a, b)| a != b)
            .count();
        assert_eq!(changed, 1);
    }

    #[test]
    fn same_seed_same_streams_and_different_seed_different_streams() {
        let decks = decks();
        let a = edit_stream(&decks, 1, 300).expect("stream");
        assert_eq!(a, edit_stream(&decks, 1, 300).expect("stream"));
        assert_ne!(a, edit_stream(&decks, 2, 300).expect("stream"));
        assert_eq!(a.1.len(), 300);
        let mut texts = a.0.texts.clone();
        texts.sort();
        texts.dedup();
        assert_eq!(texts.len(), a.0.texts.len(), "every edit is a new text");

        let s = serve_stream(&decks, 1, 300).expect("stream");
        assert_eq!(s, serve_stream(&decks, 1, 300).expect("stream"));
        assert_ne!(s, serve_stream(&decks, 2, 300).expect("stream"));
        // Each fresh edit adds one variant; resubmits add none.
        let fresh = s.0.texts.len() - decks.len();
        assert!(
            (60..120).contains(&fresh),
            "about 30% fresh edits, got {fresh}"
        );
        // Each whole round edits every deck once: a fresh edit is a variant
        // the stream has not sent before.
        let mut seen = vec![false; s.0.texts.len()];
        seen[..decks.len()].fill(true);
        for requests in s.1.chunks_exact(serve_round_len(decks.len())) {
            let mut edited = Vec::new();
            for &v in requests {
                if !seen[v] {
                    seen[v] = true;
                    edited.push(s.0.base[v]);
                }
            }
            edited.sort_unstable();
            assert_eq!(edited, [0, 1], "{requests:?}");
        }
        let loads: Vec<f64> = (1..=20).map(plate_load).collect();
        assert_eq!(loads, (1..=20).map(plate_load).collect::<Vec<_>>());
        assert!(
            loads.iter().any(|&l| l != loads[0]),
            "the seed moves the load"
        );
        assert!(loads
            .iter()
            .all(|&l| (l / 10.0).log2().fract() == 0.0 && (1.25..=80.0).contains(&l)));
    }

    #[test]
    fn edit_sessions_follow_the_mix() {
        let (variants, stream) = edit_stream(&decks(), 7, 4000).expect("stream");
        let fresh = variants.texts.len() - 2;
        // 39 of every 40 requests roll the mix; a tenth of those edit.
        assert!((300..480).contains(&fresh), "deck edits: {fresh}");
        let contoured = stream.iter().filter(|r| r.factor.is_some()).count();
        assert!(
            contoured > 400,
            "contour edits and their resubmits: {contoured}"
        );
        let bases: Vec<usize> = stream
            .chunks(SESSION_LEN)
            .map(|session| {
                let base = variants.base[session[0].variant];
                assert!(session.iter().all(|r| variants.base[r.variant] == base));
                base
            })
            .collect();
        // Each round has one session per deck.
        for round in bases.chunks(2) {
            assert_eq!(round.iter().sum::<usize>(), 1, "{bases:?}");
        }
    }
}
