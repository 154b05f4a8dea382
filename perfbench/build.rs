//! Fingerprints the sources the benchmark builds from: the repository's crates,
//! its vendored dependencies and the benchmark itself.  Runs store their schedule
//! digests and exact counts under this fingerprint, so two builds of one commit
//! are compared with each other and builds of different commits are not.

use std::path::{Path, PathBuf};

/// Every `.rs`, `.toml` and `.lock` file under `path`, skipping hidden and
/// `target` directories.
fn collect(path: &Path, files: &mut Vec<PathBuf>) {
    let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
    if path.is_dir() {
        if name.starts_with('.') || name == "target" {
            return;
        }
        if let Ok(entries) = std::fs::read_dir(path) {
            for entry in entries.flatten() {
                collect(&entry.path(), files);
            }
        }
    } else if [".rs", ".toml", ".lock"]
        .iter()
        .any(|ext| name.ends_with(ext))
    {
        files.push(path.to_path_buf());
    }
}

fn main() {
    let manifest = PathBuf::from(std::env::var("CARGO_MANIFEST_DIR").expect("set by cargo"));
    let root = manifest
        .parent()
        .expect("the benchmark sits in the repository root");
    let inputs = [
        root.join("crates"),
        root.join("vendor"),
        manifest.join("src"),
        manifest.join("build.rs"),
        manifest.join("Cargo.toml"),
        manifest.join("Cargo.lock"),
    ];
    let mut files = Vec::new();
    for input in &inputs {
        println!("cargo:rerun-if-changed={}", input.display());
        collect(input, &mut files);
    }
    files.sort();
    // FNV-1a over each file's path relative to the root, then its bytes.
    let mut hash: u64 = 0xCBF2_9CE4_8422_2325;
    let mut fold = |bytes: &[u8]| {
        for &b in bytes {
            hash ^= u64::from(b);
            hash = hash.wrapping_mul(0x0100_0000_01B3);
        }
    };
    for file in &files {
        let relative = file.strip_prefix(root).unwrap_or(file);
        fold(relative.to_string_lossy().as_bytes());
        fold(&[0]);
        fold(&std::fs::read(file).unwrap_or_default());
        fold(&[0]);
    }
    println!("cargo:rustc-env=PERFBENCH_SOURCE_HASH={hash:016x}");
}
