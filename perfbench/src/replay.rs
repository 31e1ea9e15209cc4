//! The serve stages replayed in-process on a published snapshot.

use oca::{CommunityState, LocalConfig, LocalDetector};
use oca_graph::{Cover, CsrGraph, DetectContext, EpochCounters, NodeId, Relabeling};
use oca_serve::protocol::push_id_array;
use oca_serve::{CoverIndex, Request, SnapshotStore};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fmt::Write as _;
use std::hint::black_box;
use std::time::Instant;

use crate::load::TOPK_K;
use crate::stats::median;

fn to_compact(relabeling: Option<&Relabeling>, v: u32) -> NodeId {
    relabeling.map_or(NodeId(v), |r| r.to_compact(NodeId(v)))
}

fn to_input(relabeling: Option<&Relabeling>, v: NodeId) -> u32 {
    relabeling.map_or(v.raw(), |r| r.to_original(v).raw())
}

/// Writes the `query` response line for input node `v`: the communities
/// `ids` of `cover` that contain it, members in input ids. The server's
/// serializer is private, so this is a replica of it, built on the same
/// public `push_id_array`; `serve.serialize_ns` times this replica.
fn write_query_answer(
    out: &mut String,
    epoch: u64,
    v: u32,
    ids: &[u32],
    cover: &Cover,
    relabeling: Option<&Relabeling>,
) {
    let _ = write!(
        out,
        "{{\"ok\":true,\"op\":\"query\",\"epoch\":{epoch},\"node\":{v},\"count\":{},\"communities\":[",
        ids.len()
    );
    for (i, &ci) in ids.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let community = &cover.communities()[ci as usize];
        let _ = write!(
            out,
            "{{\"id\":{ci},\"size\":{},\"members\":",
            community.len()
        );
        push_id_array(
            out,
            community.members().iter().map(|&m| to_input(relabeling, m)),
        );
        out.push('}');
    }
    out.push_str("]}");
}

/// Median per-stage costs of the replayed requests.
#[derive(Debug, Clone, Default)]
pub struct StageCosts {
    /// `Request::parse` of a `query` line, ns.
    pub parse_ns: f64,
    /// Pinning the current snapshot, ns.
    pub pin_ns: f64,
    /// Id translation plus the index probe, ns.
    pub probe_ns: f64,
    /// Writing the response line, ns.
    pub serialize_ns: f64,
    /// One `local` ascent, µs.
    pub local_us: f64,
    /// One `topk` ranking, µs.
    pub topk_us: f64,
    /// One `CoverIndex::build` over the snapshot's cover, ms.
    pub index_build_ms: f64,
}

fn median_of(samples: &[f64]) -> f64 {
    median(samples).unwrap_or(0.0)
}

/// Replays `query`, `local` and `topk` requests in-process against the
/// current snapshot of `store`, timing each stage of the server's path.
pub fn replay(
    store: &SnapshotStore,
    graph: &CsrGraph,
    relabeling: Option<&Relabeling>,
    local: &LocalConfig,
    c: f64,
    seed: u64,
) -> Result<StageCosts, String> {
    const QUERIES: usize = 4000;
    const LOCALS: usize = 300;
    const INDEX_BUILDS: usize = 5;
    let n = graph.node_count() as u32;
    let mut rng = StdRng::seed_from_u64(seed);
    let (mut parse, mut pin, mut probe, mut serialize) = (vec![], vec![], vec![], vec![]);
    let mut out = String::new();
    for _ in 0..QUERIES {
        let v = rng.random_range(0..n);
        let line = format!("query {v}");
        let t0 = Instant::now();
        let request = black_box(Request::parse(black_box(&line)));
        let t1 = Instant::now();
        let snapshot = store.load();
        let t2 = Instant::now();
        let node = match request {
            Ok(Request::Query(v)) => v,
            other => return Err(format!("replayed {line:?} parsed as {other:?}")),
        };
        let ids = snapshot.index.communities_of(to_compact(relabeling, node));
        let t3 = Instant::now();
        out.clear();
        write_query_answer(
            &mut out,
            snapshot.epoch,
            node,
            ids,
            &snapshot.cover,
            relabeling,
        );
        black_box(&out);
        let t4 = Instant::now();
        parse.push(t1.duration_since(t0).as_nanos() as f64);
        pin.push(t2.duration_since(t1).as_nanos() as f64);
        probe.push(t3.duration_since(t2).as_nanos() as f64);
        serialize.push(t4.duration_since(t3).as_nanos() as f64);
    }

    let snapshot = store.load();
    let detector = LocalDetector::new(local.clone()).map_err(|e| e.to_string())?;
    let mut state = CommunityState::new(graph, c);
    let ctx = DetectContext::new(crate::workload::DETECT_SEED);
    let mut locals = Vec::with_capacity(LOCALS);
    for _ in 0..LOCALS {
        let node = to_compact(relabeling, rng.random_range(0..n));
        let t = Instant::now();
        let found = detector
            .detect_with(graph, &mut state, c, &[node], &ctx)
            .map_err(|e| format!("local ascent: {e}"))?;
        black_box(&found);
        locals.push(t.elapsed().as_nanos() as f64 / 1e3);
    }

    let mut counters = EpochCounters::new(snapshot.cover.len());
    let mut topks = Vec::with_capacity(QUERIES);
    for _ in 0..QUERIES {
        let node = to_compact(relabeling, rng.random_range(0..n));
        let t = Instant::now();
        black_box(
            snapshot
                .index
                .top_overlapping(graph, node, TOPK_K, &mut counters),
        );
        topks.push(t.elapsed().as_nanos() as f64 / 1e3);
    }

    let builds: Vec<f64> = (0..INDEX_BUILDS)
        .map(|_| {
            let t = Instant::now();
            black_box(CoverIndex::build(&snapshot.cover));
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();

    Ok(StageCosts {
        parse_ns: median_of(&parse),
        pin_ns: median_of(&pin),
        probe_ns: median_of(&probe),
        serialize_ns: median_of(&serialize),
        local_us: median_of(&locals),
        topk_us: median_of(&topks),
        index_build_ms: median_of(&builds),
    })
}
