//! The shared `BENCH_*.json` envelope: which host produced an artifact,
//! from which revision, and when.

use std::time::{SystemTime, UNIX_EPOCH};

/// The envelope's JSON members, ready to splice into an artifact object:
/// `"host": {cores, isa, threads}, "git_rev", "generated_unix_secs"`.
pub fn envelope_fields() -> String {
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    let generated = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map_or(0, |d| d.as_secs());
    format!(
        "\"host\": {{ \"cores\": {cores}, \"isa\": \"{}\", \"threads\": {} }},\n  \
         \"git_rev\": \"{}\",\n  \"generated_unix_secs\": {generated}",
        isa(),
        lcdd_tensor::pool::num_threads(),
        git_rev(),
    )
}

/// Architecture plus the SIMD extensions the kernels dispatch on.
fn isa() -> String {
    let mut isa = std::env::consts::ARCH.to_string();
    #[cfg(target_arch = "x86_64")]
    for (feature, on) in [
        ("avx2", std::is_x86_feature_detected!("avx2")),
        ("fma", std::is_x86_feature_detected!("fma")),
        ("avx512f", std::is_x86_feature_detected!("avx512f")),
    ] {
        if on {
            isa.push('+');
            isa.push_str(feature);
        }
    }
    isa
}

/// The working directory's revision, `-dirty` when it has uncommitted
/// changes ("unknown" outside a checkout or without git).
fn git_rev() -> String {
    std::process::Command::new("git")
        .args(["describe", "--always", "--dirty", "--abbrev=40"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".into(), |s| s.trim().to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn envelope_is_a_json_member_list() {
        let doc = format!("{{ {} }}", envelope_fields());
        for key in [
            "\"host\"",
            "\"cores\"",
            "\"isa\"",
            "\"threads\"",
            "\"git_rev\"",
            "\"generated_unix_secs\"",
        ] {
            assert!(doc.contains(key), "{key} missing from {doc}");
        }
        assert!(!git_rev().contains('"'));
    }
}
