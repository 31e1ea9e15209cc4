//! The benchmark's load generator: one thread sends an open loop at a
//! fixed rate over two persistent connections, and one reader per
//! connection times the responses.
//!
//! Requests are pipelined: the generator never waits for an answer, so a
//! slow server builds a queue instead of receiving less load. Each
//! request is timed from when it was due, and the generator's own
//! lateness is recorded as lag. The server answers a connection's
//! requests in order on one worker, so `local` ascents, the slow request
//! type, travel on a connection of their own and never hold up the
//! `query` and `topk` requests on the other.

use crate::answer::QueryAnswer;
use crate::stats::{due_offset_ns, window_index, OpenLoopTiming};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::io::{BufRead, BufReader, ErrorKind, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// The request types of the mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// `query v`: indexed membership lookup.
    Query,
    /// `local v`: a seeded ascent.
    Local,
    /// `topk v 10`: neighbourhood overlap ranking.
    TopK,
}

/// Connections: one for `query` and `topk`, one for `local`.
const CONNECTIONS: usize = 2;

/// The `k` of every `topk` request.
pub const TOPK_K: usize = 10;

/// What the open loop sends.
#[derive(Debug, Clone)]
pub struct LoadSpec {
    /// Requests per second.
    pub rate: f64,
    /// Requests due before this offset are sent and checked but not timed.
    pub warmup: Duration,
    /// Slices of the timed period `[warmup, max_duration)`; each slice
    /// times the same nodes in every run (see [`plan`]).
    pub windows: usize,
    /// Longest the phase may last; the caller may stop it earlier.
    pub max_duration: Duration,
    /// Relative weights of `query`, `local` and `topk` requests.
    pub mix: [u32; 3],
    /// Nodes are drawn from `0..node_count` (see [`plan`]).
    pub node_count: u32,
    /// Seed of the request stream.
    pub seed: u64,
}

/// One request and what became of it.
#[derive(Debug, Clone, Copy)]
pub struct Record {
    /// Request type.
    pub op: Op,
    /// The node asked about (input ids).
    pub node: u32,
    /// Due time, ns since the schedule start.
    pub due: u64,
    /// Send time, ns since the schedule start.
    pub sent: u64,
    /// Answer time, ns since the schedule start; `None` if never answered.
    pub done: Option<u64>,
    /// Whether the request was due after the warm-up.
    pub measured: bool,
    /// How the server answered.
    pub answer: Answer,
    /// The epoch the answer names (0 if none).
    pub epoch: u64,
    /// For an `ok` `query` answer, the digest of what it says
    /// ([`QueryAnswer::digest`]); `None` for other answers and for lines
    /// that do not read as a query answer.
    pub digest: Option<u64>,
    /// Length of the response line in bytes.
    pub bytes: usize,
}

impl Record {
    /// The request's open-loop timing; an unanswered request is done at
    /// `ceiling_ns`.
    pub fn timing(&self, ceiling_ns: u64) -> OpenLoopTiming {
        OpenLoopTiming {
            due: self.due,
            sent: self.sent,
            done: self.done.unwrap_or(ceiling_ns),
        }
    }
}

/// Classification of a response line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Answer {
    /// `"ok":true` and complete.
    Ok,
    /// `"ok":true` but labelled partial.
    Partial,
    /// `"ok":false` with kind `overloaded`.
    Refused,
    /// Any other `"ok":false`.
    Failed,
    /// No response before the drain deadline.
    TimedOut,
}

/// Everything the phase recorded.
#[derive(Debug)]
pub struct LoadResult {
    /// Every request sent, in send order per connection.
    pub records: Vec<Record>,
    /// Length of the schedule actually sent.
    pub sent_for: Duration,
    /// The timed period, ns since the schedule start, and its slices.
    pub timed: (u64, u64, usize),
}

/// A Weyl sequence over `0..n`: `offset + k · stride (mod n)` with a
/// stride near `n / φ` and coprime to `n`. Every prefix of it spreads
/// evenly over the id range, and the first `n` terms visit every id once.
fn weyl(n: u32, offset: u64) -> impl Iterator<Item = u32> {
    let n = u64::from(n.max(1));
    let mut stride = (n as f64 / std::f64::consts::GOLDEN_RATIO) as u64 % n;
    while gcd(stride, n) != 1 {
        stride = (stride + 1) % n;
    }
    (0..).map(move |k: u64| ((offset + k * stride) % n) as u32)
}

fn gcd(a: u64, b: u64) -> u64 {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

/// The request at each slot of the open-loop schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Planned {
    op: Op,
    node: u32,
    due: u64,
    measured: bool,
}

/// Plans every request `spec` can send. Request types are drawn from the
/// mix with the seed. Within each slice of the timed period, the timed
/// requests of a type ask about the first terms of a fixed block of a
/// [`weyl`] sequence (one offset per type, one block per slice), in an
/// order the seed shuffles. So every run times the same sample of nodes
/// in each slice, hubs included, and costs that depend on the node do not
/// vary from run to run. Warm-up requests ask about nodes drawn with the
/// seed.
fn plan(spec: &LoadSpec) -> Vec<Planned> {
    let mut rng = StdRng::seed_from_u64(spec.seed);
    let max_ns = spec.max_duration.as_nanos() as u64;
    let warmup_ns = spec.warmup.as_nanos() as u64;
    let mut slots: Vec<Planned> = (0u64..)
        .map(|i| due_offset_ns(i, spec.rate))
        .take_while(|&due| due < max_ns)
        .map(|due| {
            let pick = rng.random_range(0..spec.mix.iter().sum::<u32>().max(1));
            let op = if pick < spec.mix[0] {
                Op::Query
            } else if pick < spec.mix[0] + spec.mix[1] {
                Op::Local
            } else {
                Op::TopK
            };
            Planned {
                op,
                node: 0,
                due,
                measured: due >= warmup_ns,
            }
        })
        .collect();
    let n = spec.node_count;
    let windows = spec.windows.max(1);
    // Terms reserved per slice: more than any slice can send.
    let block = slots.len() / windows + 2;
    for (k, op) in [Op::Query, Op::Local, Op::TopK].into_iter().enumerate() {
        let offset = k as u64 * u64::from(n) / 3;
        for w in 0..windows {
            let in_slice: Vec<usize> = (0..slots.len())
                .filter(|&i| {
                    slots[i].op == op
                        && window_index(slots[i].due, warmup_ns, max_ns, windows) == Some(w)
                })
                .collect();
            let mut nodes: Vec<u32> = weyl(n, offset)
                .skip(w * block)
                .take(in_slice.len())
                .collect();
            // Fisher–Yates with the seed.
            for i in (1..nodes.len()).rev() {
                nodes.swap(i, rng.random_range(0..=i));
            }
            for (i, node) in in_slice.into_iter().zip(nodes) {
                slots[i].node = node;
            }
        }
        for slot in slots.iter_mut().filter(|p| p.op == op && !p.measured) {
            slot.node = rng.random_range(0..n.max(1));
        }
    }
    slots
}

/// Longest the readers wait for outstanding answers after the last send.
const DRAIN: Duration = Duration::from_secs(10);

fn parse_answer(line: &str) -> (Answer, u64) {
    let epoch = line
        .find("\"epoch\":")
        .map(|i| {
            line[i + 8..]
                .bytes()
                .take_while(u8::is_ascii_digit)
                .fold(0u64, |e, d| e * 10 + u64::from(d - b'0'))
        })
        .unwrap_or(0);
    let answer = if line.starts_with("{\"ok\":true") {
        if line.contains("\"partial\":true") {
            Answer::Partial
        } else {
            Answer::Ok
        }
    } else if line.contains("\"kind\":\"overloaded\"") {
        Answer::Refused
    } else {
        Answer::Failed
    };
    (answer, epoch)
}

/// Bytes of a response's head that [`parse_answer`] looks at: the
/// status, op, epoch and any partial or error kind all come first.
const HEAD: usize = 256;

/// Reads one answer per request announced on `rx`, until the generator
/// hangs up and every announced request is answered or the drain
/// deadline passes. The reader only timestamps a line and classifies
/// its head; a helper thread reads the content of `query` answers for
/// the correctness check, so a long answer never delays the timestamp
/// of the one behind it.
fn read_answers(
    stream: TcpStream,
    rx: mpsc::Receiver<Record>,
    origin: Instant,
    deadline: &std::sync::Mutex<Option<Instant>>,
) -> Vec<Record> {
    let _ = stream.set_read_timeout(Some(Duration::from_millis(50)));
    let mut reader = BufReader::new(stream);
    let mut out = Vec::new();
    let (line_tx, line_rx) = mpsc::channel::<(usize, Vec<u8>)>();
    let digests = std::thread::scope(|scope| {
        let digester = scope.spawn(move || {
            line_rx
                .into_iter()
                .map(|(i, line)| {
                    let answer = std::str::from_utf8(&line)
                        .ok()
                        .and_then(QueryAnswer::from_line);
                    (i, answer.map(|a| a.digest()))
                })
                .collect::<Vec<_>>()
        });
        let mut broken = false;
        while let Ok(mut record) = rx.recv() {
            let mut line = Vec::new();
            while !broken {
                match reader.read_until(b'\n', &mut line) {
                    Ok(0) => broken = true,
                    Ok(_) if line.ends_with(b"\n") => {
                        record.done = Some(origin.elapsed().as_nanos() as u64);
                        line.pop();
                        let head = &line[..line.len().min(HEAD)];
                        let (answer, epoch) = parse_answer(&String::from_utf8_lossy(head));
                        record.answer = answer;
                        record.epoch = epoch;
                        record.bytes = line.len();
                        if record.op == Op::Query && answer == Answer::Ok {
                            let _ = line_tx.send((out.len(), line));
                        }
                        break;
                    }
                    Ok(_) => {}
                    Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                        broken = deadline
                            .lock()
                            .expect("drain deadline lock")
                            .is_some_and(|d| Instant::now() >= d);
                    }
                    Err(e) if e.kind() == ErrorKind::Interrupted => {}
                    Err(_) => broken = true,
                }
            }
            out.push(record);
        }
        drop(line_tx);
        digester.join().expect("digest thread panicked")
    });
    for (i, digest) in digests {
        out[i].digest = digest;
    }
    out
}

/// Runs the open loop against `addr` until `stop` is set or
/// `spec.max_duration` passes, then waits for the answers.
pub fn run_load(
    addr: SocketAddr,
    spec: &LoadSpec,
    stop: &AtomicBool,
) -> Result<LoadResult, String> {
    let mut writers = Vec::new();
    let mut readers = Vec::new();
    for _ in 0..CONNECTIONS {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connecting {addr}: {e}"))?;
        stream
            .set_nodelay(true)
            .map_err(|e| format!("configuring the connection: {e}"))?;
        let reader = stream
            .try_clone()
            .map_err(|e| format!("cloning the connection: {e}"))?;
        writers.push(stream);
        readers.push(reader);
    }
    let deadline = std::sync::Mutex::new(None);
    let origin = Instant::now();
    let schedule = plan(spec);
    let (sent_for, records) = std::thread::scope(|scope| {
        let mut txs = Vec::new();
        let mut handles = Vec::new();
        for reader in readers {
            let (tx, rx) = mpsc::channel::<Record>();
            txs.push(tx);
            let deadline = &deadline;
            handles.push(scope.spawn(move || read_answers(reader, rx, origin, deadline)));
        }
        let mut line = String::new();
        for &Planned {
            op,
            node,
            due,
            measured,
        } in &schedule
        {
            if stop.load(Ordering::Relaxed) {
                break;
            }
            let now = origin.elapsed().as_nanos() as u64;
            if due > now {
                std::thread::sleep(Duration::from_nanos(due - now));
            }
            line.clear();
            match op {
                Op::Query => line.push_str(&format!("query {node}\n")),
                Op::Local => line.push_str(&format!("local {node}\n")),
                Op::TopK => line.push_str(&format!("topk {node} {TOPK_K}\n")),
            }
            let conn = usize::from(op == Op::Local);
            let sent = origin.elapsed().as_nanos() as u64;
            let record = Record {
                op,
                node,
                due,
                sent,
                done: None,
                measured,
                answer: Answer::TimedOut,
                epoch: 0,
                digest: None,
                bytes: 0,
            };
            if writers[conn].write_all(line.as_bytes()).is_err() {
                // The connection is gone: count the request, unanswered.
                let _ = txs[conn].send(record);
                break;
            }
            let _ = txs[conn].send(record);
        }
        let sent_for = origin.elapsed();
        *deadline.lock().expect("drain deadline lock") = Some(Instant::now() + DRAIN);
        drop(txs);
        let records: Vec<Record> = handles
            .into_iter()
            .flat_map(|h| h.join().expect("reader thread panicked"))
            .collect();
        (sent_for, records)
    });
    Ok(LoadResult {
        records,
        sent_for,
        timed: (
            spec.warmup.as_nanos() as u64,
            spec.max_duration.as_nanos() as u64,
            spec.windows,
        ),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn weyl_sequences_visit_every_node_once_per_cycle() {
        for n in [1u32, 2, 10, 97, 100_000] {
            let mut seen = vec![false; n as usize];
            for v in weyl(n, 3).take(n as usize) {
                assert!(!seen[v as usize], "node {v} repeated within a cycle of {n}");
                seen[v as usize] = true;
            }
        }
        // Any prefix is spread evenly: 1000 terms over 100 000 ids put
        // close to 100 in each tenth of the range.
        let mut tenths = [0u32; 10];
        for v in weyl(100_000, 12_345).take(1000) {
            tenths[v as usize / 10_000] += 1;
        }
        assert!(
            tenths.iter().all(|&c| (95..=105).contains(&c)),
            "{tenths:?}"
        );
    }

    #[test]
    fn every_seed_times_the_same_nodes_in_its_own_order() {
        let spec = |seed| LoadSpec {
            rate: 1000.0,
            warmup: Duration::from_millis(100),
            windows: 4,
            max_duration: Duration::from_secs(2),
            mix: [60, 20, 20],
            node_count: 50_000,
            seed,
        };
        let timed = |plan: &[Planned], op, w| {
            let mut v: Vec<u32> = plan
                .iter()
                .filter(|p| {
                    p.op == op && window_index(p.due, 100_000_000, 2_000_000_000, 4) == Some(w)
                })
                .map(|p| p.node)
                .collect();
            v.sort_unstable();
            v
        };
        let (a, b) = (plan(&spec(1)), plan(&spec(2)));
        assert_eq!(a.len(), 2000);
        assert_ne!(a, b, "the seed changes the stream");
        for op in [Op::Query, Op::Local, Op::TopK] {
            for w in 0..4 {
                let (x, y) = (timed(&a, op, w), timed(&b, op, w));
                // Both are prefixes of one fixed block: the shorter is a
                // subset of the longer.
                let (short, long) = if x.len() <= y.len() { (x, y) } else { (y, x) };
                assert!(short.len() > 50);
                assert!(short.iter().all(|v| long.binary_search(v).is_ok()));
            }
        }
        assert_eq!(plan(&spec(1)), a, "the same seed gives the same stream");
    }

    #[test]
    fn answers_are_classified_with_their_epoch() {
        assert_eq!(
            parse_answer("{\"ok\":true,\"op\":\"query\",\"epoch\":12,\"node\":3}"),
            (Answer::Ok, 12)
        );
        assert_eq!(
            parse_answer("{\"ok\":true,\"op\":\"local\",\"epoch\":2,\"partial\":true}"),
            (Answer::Partial, 2)
        );
        assert_eq!(
            parse_answer("{\"ok\":false,\"error\":{\"kind\":\"overloaded\",\"message\":\"x\"}}"),
            (Answer::Refused, 0)
        );
        assert_eq!(
            parse_answer("{\"ok\":false,\"error\":{\"kind\":\"internal\",\"message\":\"x\"}}"),
            (Answer::Failed, 0)
        );
    }
}
