//! One workload of the benchmark, run in a process of its own so that
//! peak memory and CPU time belong to that workload alone.
//!
//! ```text
//! perfbench <workload> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Prints one JSON line: the workload's metrics, attempted and failed
//! operations, failed output checks, and notes. `perfbench/run.py`
//! builds this program, runs it, and prints the benchmark's result.
//! `perfbench reference` prints the time of the host-speed reference
//! kernel the workloads run between passes (see `stats::HostSpeed`).

#![forbid(unsafe_code)]

mod campaign;
mod replay;
mod stats;
mod trace;
mod udp;
mod verify;

use hb_chaos::Backend;
use verify::Stack;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1))
            .cloned()
    };
    let usage = || -> ! {
        eprintln!(
            "usage: perfbench <campaign_sim|campaign_loopback|udp_cluster|mck_packed|mck_hashed> \
             --seed <n> --seconds <s> --trace <0|1>"
        );
        std::process::exit(2)
    };
    let Some(workload) = args.first().cloned() else {
        usage()
    };
    if workload == "reference" {
        println!("{:?}", stats::reference());
        return;
    }
    let seed: u64 = value("--seed")
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| usage());
    let secs: f64 = value("--seconds")
        .and_then(|v| v.parse().ok())
        .filter(|s: &f64| *s > 0.0)
        .unwrap_or_else(|| usage());
    let traced = match value("--trace").as_deref() {
        Some("0") => false,
        Some("1") => true,
        _ => usage(),
    };
    let out = match workload.as_str() {
        "campaign_sim" => campaign::run(seed, secs, Backend::Sim, traced),
        "campaign_loopback" => campaign::run(seed, secs, Backend::Live, traced),
        "udp_cluster" => udp::run(seed, secs, traced),
        "mck_packed" => verify::run(Stack::Packed, secs, traced),
        "mck_hashed" => verify::run(Stack::Hashed, secs, traced),
        _ => usage(),
    };
    println!("{}", out.to_json(&workload));
}
