//! The workspace's `unsafe` inventory, enforced.
//!
//! Every library crate forbids `unsafe` except two, which deny it and allow
//! it on audited items only: `rlz-serve` (raw epoll/eventfd bindings in
//! `event.rs`) and `rlz-codecs` (the SSE4.2 CRC32C call in `hash.rs`). Both
//! also deny `clippy::undocumented_unsafe_blocks`, so every block carries a
//! `// SAFETY:` argument. A new `unsafe` anywhere else — or a crate root
//! that drops its attribute — fails this test instead of slipping in
//! unreviewed.

use std::fs;
use std::path::{Path, PathBuf};

/// Crates that deny (not forbid) `unsafe_code`, and the one source file in
/// each that may use it.
const AUDITED: [(&str, &str); 2] = [
    ("crates/codecs", "crates/codecs/src/hash.rs"),
    ("crates/serve", "crates/serve/src/event.rs"),
];

const FORBID: &str = "#![forbid(unsafe_code)]";
const DENY: &str = "#![deny(unsafe_code)]";
const DOCUMENTED: &str = "#![deny(clippy::undocumented_unsafe_blocks)]";

fn root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

fn rel(path: &Path) -> String {
    path.strip_prefix(root())
        .expect("path under the workspace root")
        .to_string_lossy()
        .replace('\\', "/")
}

fn crate_dirs() -> Vec<PathBuf> {
    let mut dirs: Vec<PathBuf> = fs::read_dir(root().join("crates"))
        .expect("read crates/")
        .map(|e| e.expect("crates/ entry").path())
        .filter(|p| p.join("src/lib.rs").is_file())
        .collect();
    dirs.sort();
    assert!(dirs.len() >= 10, "expected the workspace's library crates");
    dirs
}

fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in fs::read_dir(dir).unwrap_or_else(|e| panic!("read {}: {e}", dir.display())) {
        let path = entry.expect("dir entry").path();
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|x| x == "rs") {
            out.push(path);
        }
    }
}

#[test]
fn crate_roots_forbid_unsafe_except_the_audited_two() {
    let mut roots: Vec<(String, PathBuf)> = crate_dirs()
        .into_iter()
        .map(|d| (rel(&d), d.join("src/lib.rs")))
        .collect();
    roots.push(("the facade".into(), root().join("src/lib.rs")));
    for (name, lib) in roots {
        let text = fs::read_to_string(&lib).expect("read lib.rs");
        let has = |attr: &str| text.lines().any(|l| l.trim() == attr);
        if AUDITED.iter().any(|&(dir, _)| dir == name) {
            assert!(has(DENY), "{name} must keep {DENY}");
            assert!(has(DOCUMENTED), "{name} must keep {DOCUMENTED}");
            assert!(
                !has(FORBID),
                "{name} allows one audited item; {DENY}, not forbid"
            );
        } else {
            assert!(has(FORBID), "{name} must keep {FORBID}");
        }
    }
}

#[test]
fn unsafe_appears_only_in_the_audited_files() {
    let mut files = Vec::new();
    for dir in crate_dirs() {
        rust_files(&dir.join("src"), &mut files);
    }
    rust_files(&root().join("src"), &mut files);
    let allowed: Vec<&str> = AUDITED.iter().map(|&(_, file)| file).collect();
    let mut seen = Vec::new();
    for file in files {
        let name = rel(&file);
        let text = fs::read_to_string(&file).expect("read source");
        let uses_unsafe = ["unsafe {", "unsafe fn", "unsafe impl", "allow(unsafe_code)"]
            .iter()
            .any(|pat| text.contains(pat));
        if uses_unsafe {
            assert!(
                allowed.contains(&name.as_str()),
                "{name} uses `unsafe`; only {allowed:?} may (see this test's docs)"
            );
            seen.push(name);
        }
    }
    seen.sort();
    assert_eq!(
        seen, allowed,
        "an audited file no longer uses `unsafe`: shrink the list"
    );
}
