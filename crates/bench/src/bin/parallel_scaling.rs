//! Parallel scaling bench: sweeps the OCA driver's thread count on
//! generated graphs, records throughput/speedup, and *verifies* the
//! driver's determinism contract — every thread count must produce a
//! cover and seeds-tried cutoff identical to the 1-thread run. Results go
//! to `results/BENCH_parallel.json` (fields documented in README.md); a
//! failed determinism check exits non-zero, so CI can gate on it.
//!
//! ```text
//! cargo run -p oca-bench --release --bin parallel_scaling -- --nodes 4000 --threads 1,2,4,8
//! cargo run -p oca-bench --release --bin parallel_scaling -- --smoke   # tiny CI gate
//! ```

use oca::{HaltingConfig, Oca, OcaConfig, OcaResult};
use oca_bench::{results_dir, secs, Args, Table};
use oca_gen::{lfr, planted_partition, LfrParams};
use oca_graph::CsrGraph;
use std::fmt::Write as _;

struct Point {
    threads: usize,
    result: OcaResult,
    deterministic: bool,
}

fn config(n: usize, seed: u64, threads: usize, batch: usize) -> OcaConfig {
    OcaConfig {
        halting: HaltingConfig {
            max_seeds: (4 * n).max(100),
            target_coverage: 0.99,
            stagnation_limit: 200,
            ..Default::default()
        },
        rng_seed: seed,
        threads,
        batch,
        ..Default::default()
    }
}

/// Runs the thread sweep on one graph; `points[0]` is the reference run.
fn sweep(graph: &CsrGraph, threads: &[usize], seed: u64, batch: usize) -> Vec<Point> {
    let mut points: Vec<Point> = Vec::new();
    for &t in threads {
        let result = Oca::new(config(graph.node_count(), seed, t, batch)).run(graph);
        let deterministic = points.first().is_none_or(|reference| {
            result.cover == reference.result.cover
                && result.seeds_tried == reference.result.seeds_tried
        });
        points.push(Point {
            threads: t,
            result,
            deterministic,
        });
        eprint!(".");
    }
    points
}

fn json_graph(family: &str, graph: &CsrGraph, points: &[Point]) -> String {
    let base_secs = points[0].result.elapsed.as_secs_f64();
    let mut out = String::new();
    let _ = write!(
        out,
        "    {{\n      \"family\": \"{family}\",\n      \"nodes\": {},\n      \"edges\": {},\n      \"points\": [\n",
        graph.node_count(),
        graph.edge_count()
    );
    for (i, p) in points.iter().enumerate() {
        let s = p.result.elapsed.as_secs_f64();
        let throughput = p.result.seeds_tried as f64 / s.max(1e-9);
        let _ = writeln!(
            out,
            "        {{\"threads\": {}, \"secs\": {:.6}, \"runner_secs\": {:.6}, \"seeds_tried\": {}, \"communities\": {}, \"halt\": \"{}\", \"tickets_wasted\": {}, \"throughput_seeds_per_sec\": {:.1}, \"speedup\": {:.3}, \"identical_to_1_thread\": {}}}{}",
            p.threads,
            s,
            (p.result.phases.ascent_ns + p.result.phases.dedup_ns) as f64 / 1e9,
            p.result.seeds_tried,
            p.result.cover.len(),
            p.result.halt_reason.map_or("none", |r| r.label()),
            p.result.tickets_wasted,
            throughput,
            base_secs / s.max(1e-9),
            p.deterministic,
            if i + 1 < points.len() { "," } else { "" }
        );
    }
    out.push_str("      ]\n    }");
    out
}

fn main() {
    let args = Args::parse();
    let smoke = std::env::args().any(|a| a == "--smoke");
    let seed: u64 = args.get_strict("seed", 42);
    let batch: usize = args.get_strict("batch", 64);
    let nodes: usize = args.get_strict("nodes", if smoke { 300 } else { 4000 });
    let mut threads: Vec<usize> = if smoke {
        vec![1, 2]
    } else {
        let raw: String = args.get("threads", "1,2,4,8".to_string());
        raw.split(',')
            .map(|t| {
                t.trim().parse().unwrap_or_else(|_| {
                    eprintln!("error: invalid value for --threads: {raw:?}");
                    std::process::exit(2);
                })
            })
            .collect()
    };
    // The determinism verdict is "identical to the 1-thread run", so the
    // sweep always starts with an actual 1-thread reference.
    threads.retain(|&t| t != 1);
    threads.insert(0, 1);

    println!(
        "parallel scaling: OCA ticket-ordered driver, threads {threads:?}, batch {batch}, seed {seed}{}",
        if smoke { " (smoke mode)" } else { "" }
    );

    let mut graphs: Vec<(&str, CsrGraph)> =
        vec![("lfr", lfr(&LfrParams::small(nodes, 0.3, seed)).graph)];
    if !smoke {
        // 40 expected out-of-community neighbors per node at any n (0.01
        // at the default n = 4000); a fixed p_out would make large-n
        // graphs dense random ones.
        let pp = planted_partition(nodes / 50, 50, 0.3, 40.0 / nodes as f64, seed);
        graphs.push(("planted", pp.graph));
    }

    let mut table = Table::new([
        "graph",
        "threads",
        "secs",
        "seeds",
        "wasted",
        "communities",
        "speedup",
        "deterministic",
    ]);
    let mut all_points: Vec<(&str, CsrGraph, Vec<Point>)> = Vec::new();
    for (family, graph) in graphs {
        let points = sweep(&graph, &threads, seed, batch);
        eprintln!();
        let base_secs = points[0].result.elapsed.as_secs_f64();
        for p in &points {
            table.row([
                family.to_string(),
                p.threads.to_string(),
                secs(p.result.elapsed),
                p.result.seeds_tried.to_string(),
                p.result.tickets_wasted.to_string(),
                p.result.cover.len().to_string(),
                format!(
                    "{:.2}",
                    base_secs / p.result.elapsed.as_secs_f64().max(1e-9)
                ),
                p.deterministic.to_string(),
            ]);
        }
        all_points.push((family, graph, points));
    }
    print!("{}", table.render());

    let pass = all_points
        .iter()
        .all(|(_, _, points)| points.iter().all(|p| p.deterministic));
    let mut json = String::from("{\n  \"bench\": \"parallel_scaling\",\n");
    let _ = write!(
        json,
        "  \"mode\": \"{}\",\n  \"meta\": {},\n  \"rng_seed\": {seed},\n  \"batch\": {batch},\n  \"thread_counts\": {threads:?},\n  \"determinism\": \"{}\",\n  \"graphs\": [\n",
        if smoke { "smoke" } else { "full" },
        oca_bench::run_meta_json(&format!(
            "lfr{} n={nodes} mu=0.3",
            if smoke { "" } else { "+planted" }
        )),
        if pass { "pass" } else { "fail" }
    );
    for (i, (family, graph, points)) in all_points.iter().enumerate() {
        json.push_str(&json_graph(family, graph, points));
        json.push_str(if i + 1 < all_points.len() {
            ",\n"
        } else {
            "\n"
        });
    }
    json.push_str("  ]\n}\n");

    let dir = results_dir();
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("could not create {}: {e}", dir.display());
        std::process::exit(1);
    }
    let path = dir.join("BENCH_parallel.json");
    match std::fs::write(&path, &json) {
        Ok(()) => println!("\nwrote {}", path.display()),
        Err(e) => {
            eprintln!("could not write {}: {e}", path.display());
            std::process::exit(1);
        }
    }

    if pass {
        println!("determinism check: PASS (identical cover and cutoff at every thread count)");
    } else {
        eprintln!("determinism check: FAIL — parallel output diverged from the 1-thread run");
        std::process::exit(1);
    }
}
