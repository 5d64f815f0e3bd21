//! Repo self-lint: a source gate enforcing the workspace panic policy
//! and the telemetry schema on `crates/*/src`.
//!
//! ```sh
//! cargo run --release -p cafemio-bench --bin srclint
//! cargo run --release -p cafemio-bench --bin srclint -- --dump-telemetry
//! ```
//!
//! Rules:
//!
//! 1. **Annotated panics** — every `.unwrap()` / `.expect(` / `panic!` /
//!    `unreachable!` in non-test library code must carry an
//!    `// invariant:` comment (same line or within the three lines
//!    above) stating why it cannot fire. `unwrap_or*` adapters are not
//!    panic sites. Test modules (from the first `#[cfg(test)]` to end of
//!    file) and the `bench` harness crate are exempt.
//! 2. **No `unsafe`** — the token may not appear in any crate's source
//!    (outside comments and the `unsafe_code` lint name itself).
//! 3. **Lint headers** — every crate's `lib.rs` must declare
//!    `#![forbid(unsafe_code)]`.
//! 4. **Telemetry schema** — every span/counter name literal at an
//!    emission site in non-test library code must be declared in
//!    `cafemio::instrument::names` as its kind: a `span("..")` name in
//!    `SPANS`, a `counter("..")` / `add("..")` name in `COUNTERS`
//!    (prefix families are exempt). Every declared
//!    exact name must have at least one emission site (no dead registry
//!    entries). `--dump-telemetry` prints the extracted names instead of
//!    checking.
//!
//! Prints one line per violation and exits nonzero on any.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use cafemio::instrument::names;

fn main() -> ExitCode {
    let dump = std::env::args().any(|a| a == "--dump-telemetry");
    let crates_dir = Path::new("crates");
    let mut crate_dirs: Vec<PathBuf> = match std::fs::read_dir(crates_dir) {
        Ok(entries) => entries
            .filter_map(Result::ok)
            .map(|e| e.path())
            .filter(|p| p.join("src").is_dir())
            .collect(),
        Err(e) => {
            eprintln!("srclint: cannot read {}: {e} (run from the repo root)", crates_dir.display());
            return ExitCode::FAILURE;
        }
    };
    crate_dirs.sort();

    let mut violations = Vec::new();
    let mut emitted: BTreeSet<(String, String)> = BTreeSet::new();
    let mut corpus = String::new();
    let mut files = 0usize;
    for crate_dir in &crate_dirs {
        let crate_name = crate_dir
            .file_name()
            .map(|n| n.to_string_lossy().into_owned())
            .unwrap_or_default();
        let panic_rule = crate_name != "bench";

        let lib = crate_dir.join("src/lib.rs");
        match std::fs::read_to_string(&lib) {
            Ok(text) if !text.contains("#![forbid(unsafe_code)]") => violations.push(format!(
                "{}: missing the `#![forbid(unsafe_code)]` lint header",
                lib.display()
            )),
            Ok(_) => {}
            Err(e) => violations.push(format!("{}: {e}", lib.display())),
        }

        let mut sources = Vec::new();
        collect_rs_files(&crate_dir.join("src"), &mut sources, &mut violations);
        sources.sort();
        for path in sources {
            files += 1;
            match std::fs::read_to_string(&path) {
                Ok(text) => {
                    check_file(&path, &text, panic_rule, &mut violations);
                    // This file's own marker strings and the registry's
                    // declarations are not emission sites.
                    let meta = path.ends_with("bin/srclint.rs")
                        || path.ends_with("instrument/src/names.rs");
                    if !meta {
                        let stripped = non_test_code(&text);
                        for (kind, name) in telemetry_sites(&stripped) {
                            emitted.insert((kind.to_string(), name));
                        }
                        corpus.push_str(&stripped);
                    }
                }
                Err(e) => violations.push(format!("{}: {e}", path.display())),
            }
        }
    }

    if dump {
        for (kind, name) in &emitted {
            println!("{kind}\t{name}");
        }
        return ExitCode::SUCCESS;
    }
    check_telemetry_schema(&emitted, &corpus, &mut violations);

    if violations.is_empty() {
        println!(
            "srclint: clean — {} crates, {files} files, {} telemetry names, 0 violations",
            crate_dirs.len(),
            emitted.len()
        );
        ExitCode::SUCCESS
    } else {
        for violation in &violations {
            eprintln!("srclint: {violation}");
        }
        eprintln!("srclint: {} violation(s)", violations.len());
        ExitCode::FAILURE
    }
}

/// The telemetry-schema gate: every emitted name must be registered as
/// its kind, and every registered exact name must appear somewhere in
/// non-test library code (names published through `CounterRecord`
/// batches — the batch summary tuples, the seeded serve skeleton — count
/// as live even though they are not call sites). Prefix families are
/// exempt from the dead-name check (their sites are `format!` calls, not
/// literals).
fn check_telemetry_schema(
    emitted: &BTreeSet<(String, String)>,
    corpus: &str,
    violations: &mut Vec<String>,
) {
    violations.extend(
        emitted
            .iter()
            .filter_map(|(kind, name)| kind_violation(kind, name)),
    );
    for name in names::SPANS.iter().chain(names::COUNTERS) {
        if !corpus.contains(&format!("\"{name}\"")) {
            violations.push(format!(
                "telemetry: registered name {name:?} has no emission site — remove it \
                 from crates/instrument/src/names.rs or emit it"
            ));
        }
    }
}

/// Why one emission site breaks the schema, if it does: a `span` site's
/// name must be in [`names::SPANS`] and a `counter` site's in
/// [`names::COUNTERS`]. Members of a [`names::PREFIXES`] family pass as
/// either kind.
fn kind_violation(kind: &str, name: &str) -> Option<String> {
    if names::PREFIXES.iter().any(|prefix| name.starts_with(prefix)) {
        return None;
    }
    let (own, own_list, other, other_list) = if kind == "span" {
        ("SPANS", names::SPANS, "COUNTERS", names::COUNTERS)
    } else {
        ("COUNTERS", names::COUNTERS, "SPANS", names::SPANS)
    };
    if own_list.contains(&name) {
        None
    } else if other_list.contains(&name) {
        Some(format!(
            "telemetry: {kind} name {name:?} is filed in {other}, but a {kind} site needs it \
             in {own} (crates/instrument/src/names.rs)"
        ))
    } else {
        Some(format!(
            "telemetry: {kind} name {name:?} is not declared in \
             crates/instrument/src/names.rs"
        ))
    }
}

/// The non-test, non-comment portion of one source file: everything
/// before the first `#[cfg(test)]`, with `//` lines dropped.
fn non_test_code(text: &str) -> String {
    let lines: Vec<&str> = text.lines().collect();
    let test_tail = lines
        .iter()
        .position(|line| line.trim_start().starts_with("#[cfg(test)]"))
        .unwrap_or(lines.len());
    lines[..test_tail]
        .iter()
        .filter(|line| !line.trim_start().starts_with("//"))
        .map(|line| format!("{line}\n"))
        .collect()
}

/// Extracts `(kind, name)` for every telemetry emission site in
/// already-stripped source. Sites are the free functions `span("..")`,
/// `counter("..")` and `add("..")`, not preceded by `.` — accessor reads
/// like `report.counter("..")` are not emissions. The name literal may
/// sit on the next line (rustfmt wraps long calls), so matching runs
/// over the joined source, not per line.
fn telemetry_sites(code: &str) -> Vec<(&'static str, String)> {
    let mut sites = Vec::new();
    for (marker, kind) in [
        ("span(", "span"),
        ("counter(", "counter"),
        ("add(", "counter"),
    ] {
        let bytes = code.as_bytes();
        let mut from = 0;
        while let Some(at) = code[from..].find(marker) {
            let start = from + at;
            from = start + marker.len();
            // Reject `.counter(` accessor reads and identifier tails like
            // `active_spans(` or `saturating_add(`.
            if start > 0 {
                let before = bytes[start - 1];
                if before == b'.' || before == b'_' || before.is_ascii_alphanumeric() {
                    continue;
                }
            }
            let rest = code[start + marker.len()..].trim_start();
            let Some(literal) = rest.strip_prefix('"') else {
                continue;
            };
            let Some(end) = literal.find('"') else {
                continue;
            };
            sites.push((kind, literal[..end].to_string()));
        }
    }
    sites
}

fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>, violations: &mut Vec<String>) {
    let entries = match std::fs::read_dir(dir) {
        Ok(entries) => entries,
        Err(e) => {
            violations.push(format!("{}: {e}", dir.display()));
            return;
        }
    };
    for entry in entries.filter_map(Result::ok) {
        let path = entry.path();
        if path.is_dir() {
            collect_rs_files(&path, out, violations);
        } else if path.extension().is_some_and(|ext| ext == "rs") {
            out.push(path);
        }
    }
}

fn check_file(path: &Path, text: &str, panic_rule: bool, violations: &mut Vec<String>) {
    let lines: Vec<&str> = text.lines().collect();
    // The panic policy covers library code only: the test tail (from the
    // first `#[cfg(test)]` on) asserts freely.
    let test_tail = lines
        .iter()
        .position(|line| line.trim_start().starts_with("#[cfg(test)]"))
        .unwrap_or(lines.len());

    for (i, line) in lines.iter().enumerate() {
        let trimmed = line.trim_start();
        if trimmed.starts_with("//") {
            continue;
        }
        if has_unsafe_token(line) {
            violations.push(format!(
                "{}:{}: the `{}` keyword is forbidden workspace-wide",
                path.display(),
                i + 1,
                UNSAFE_TOKEN.as_str(),
            ));
        }
        if !panic_rule || i >= test_tail {
            continue;
        }
        for site in ["panic!", "unreachable!", ".expect(", ".unwrap()"] {
            if !line.contains(site) {
                continue;
            }
            let annotated = (i.saturating_sub(3)..=i)
                .any(|j| lines[j].contains("invariant:"));
            if !annotated {
                violations.push(format!(
                    "{}:{}: `{site}` without an `// invariant:` comment explaining \
                     why it cannot fire",
                    path.display(),
                    i + 1
                ));
            }
            break;
        }
    }
}

/// The forbidden keyword, assembled at runtime so this linter's own
/// source never contains it verbatim and cannot flag itself.
struct Token(String);

impl Token {
    fn as_str(&self) -> &str {
        &self.0
    }
}

static UNSAFE_TOKEN: std::sync::LazyLock<Token> =
    std::sync::LazyLock::new(|| Token(["un", "safe"].concat()));

/// Whether the line uses the forbidden keyword — as a word, not as part
/// of the `*_code` lint name or an identifier.
fn has_unsafe_token(line: &str) -> bool {
    let token = UNSAFE_TOKEN.as_str();
    let bytes = line.as_bytes();
    let mut from = 0;
    while let Some(at) = line[from..].find(token) {
        let start = from + at;
        let end = start + token.len();
        let boundary_before = start == 0 || !is_ident(bytes[start - 1]);
        let boundary_after = end >= bytes.len() || !is_ident(bytes[end]);
        let lint_name = line[end..].starts_with("_code");
        if boundary_before && boundary_after && !lint_name {
            return true;
        }
        from = end;
    }
    false
}

fn is_ident(byte: u8) -> bool {
    byte == b'_' || byte.is_ascii_alphanumeric()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_name_emitted_as_the_wrong_kind_is_rejected() {
        let sites = telemetry_sites(
            "let _t = span(\"fem.assemble\");\ncounter(\"fem.dofs\", 1);\n\
             counter(\"fem.assemble\", 1);\nadd(\"fem.assemble\", 1);\n\
             add(\n    \"fem.dofs\",\n    2,\n);\nreport.counter(\"fem.dofs\");\n\
             total.saturating_add(\"fem.dofs\");\n",
        );
        let verdicts: Vec<_> = sites
            .iter()
            .map(|(kind, name)| (*kind, name.as_str(), kind_violation(kind, name)))
            .collect();
        assert_eq!(verdicts.len(), 5);
        for (kind, name, verdict) in verdicts {
            let right_kind = (kind == "span") == (name == "fem.assemble");
            match verdict {
                None => assert!(right_kind, "{kind} {name} passed as the wrong kind"),
                Some(message) => {
                    assert!(!right_kind, "{kind} {name} rejected: {message}");
                    assert!(message.contains("is filed in"), "{message}");
                }
            }
        }
    }

    #[test]
    fn unknown_names_fail_and_prefix_families_pass_as_either_kind() {
        let unknown = kind_violation("counter", "made.up.name").expect("unregistered");
        assert!(unknown.contains("is not declared"), "{unknown}");
        assert_eq!(kind_violation("counter", "lint.D001"), None);
        assert_eq!(kind_violation("span", "lint.D001"), None);
    }
}
