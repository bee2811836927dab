//! Simulated-output digests pinned for the default seed.
//!
//! Each entry is the SHA-256 of a workload's canonical simulated output
//! at seed 42: completed requests, simulated mean and p90 response
//! times and energy for the replays, the rendered reports for
//! `paper_studies`, and `explore.json` without its code-version line for
//! `explore_grid`. The simulator is deterministic, so a change meant
//! only to make it faster must reproduce these exactly; a change that
//! means to alter simulated results re-pins them and says so.

/// The pinned digest of `workload` at `scale` ("default" or "tiny").
pub fn digest(workload: &str, scale: &str) -> Option<&'static str> {
    Some(match (workload, scale) {
        ("hcsd_sa4", "default") => {
            "89bfbd5374d97d5519edd55ef845b6e2f6daba6b59bda3265441e8ee6fdc100a"
        }
        ("md_arrays", "default") => {
            "aa144d1d21abfc5c11cfdf558a6bada84ab091eb48c9ffe77cd9cde0c613e26e"
        }
        ("paper_studies", "default") => {
            "9298e6653cd1eddab635cf28c93b91d00cf25f17500dba34e451abb703de0591"
        }
        ("explore_grid", "default") => {
            "881592e8cd6d7d21ba2c6c4f9de8de6420bff6457ccf209c2b6cbcc4ac47908f"
        }
        ("hcsd_sa4", "tiny") => "0113bb22128a70ae371b27130706448235e86fec79c0b3dd8ba7554cee150880",
        ("md_arrays", "tiny") => "2329c13a998dd3444141f74813727a43d01712aa89cab4d1997c12db29091727",
        ("paper_studies", "tiny") => {
            "17dbe045e0d0fdbb6dc85af0b0258967322481ad8f40e128415479c4ce9d93ec"
        }
        ("explore_grid", "tiny") => {
            "58068f19112a350f7ecf7bf21a9683e9c1ffe8dff138f1376502d3de55d43a6d"
        }
        _ => return None,
    })
}
