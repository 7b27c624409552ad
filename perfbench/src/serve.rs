//! The serve pass of select-heap's traced run, the design's serve-rw
//! workload: an in-process `setsim-server` over a `MutableEngine`,
//! driven over TCP by one reader connection and one writer connection.
//! Both run open loop at fixed rates; every request is timed from when
//! it was due, so a stall also counts against the requests queued behind
//! it. It gives the segment, server, wire codec and write figures.

use crate::inputs::{collection, Inputs, Query, WriteOp, GATE_QUERIES};
use crate::measure::{mean, median, percentile, same_within, timed, us_since};
use crate::report::Outcome;
use crate::select::Cfg;
use crate::trace::{SpanId, Tracer};
use setsim_core::api::{read_frame, write_frame, MAX_FRAME_LEN};
use setsim_core::{
    AlgorithmKind, IndexOptions, MutableEngine, MutableIndex, MutableSearchRequest, SearchCall,
    WireRequest, WireResponse, WireStats, PROTOCOL_VERSION,
};
use setsim_server::{ServerConfig, ServerHandle};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// Offered read rate, requests per second.
const READ_RATE: f64 = 500.0;
/// The writer spreads its fixed mutation count over this share of the
/// pass, so that both compactions, and the catch-up after each, end
/// well inside the read window.
const WRITE_SPAN: f64 = 0.7;
/// Search frames kept for the offline codec timing.
const CODEC_FRAMES: usize = 4096;
/// A request still unanswered after this long counts as failed.
const CALL_TIMEOUT: Duration = Duration::from_secs(60);

/// A request payload and its response payload, as sent on the wire.
type Frames = (Vec<u8>, Vec<u8>);

/// One protocol connection; the same code serves traced and untraced
/// runs (a disabled tracer records nothing).
struct Conn {
    stream: TcpStream,
}

/// Span names of one request kind.
struct Names {
    root: &'static str,
    encode: &'static str,
    roundtrip: &'static str,
    decode: &'static str,
}

const READ: Names = Names {
    root: "read",
    encode: "api.encode",
    roundtrip: "net.roundtrip",
    decode: "api.decode",
};
const WRITE: Names = Names {
    root: "write",
    encode: "write.encode",
    roundtrip: "write.roundtrip",
    decode: "write.decode",
};

impl Conn {
    fn connect(addr: SocketAddr) -> Result<Conn, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
        stream
            .set_nodelay(true)
            .and_then(|()| stream.set_read_timeout(Some(CALL_TIMEOUT)))
            .map_err(|e| format!("socket options: {e}"))?;
        let mut conn = Conn { stream };
        let hello = WireRequest::Hello {
            version: PROTOCOL_VERSION,
        };
        let mut tr = Tracer::off();
        match conn.call(&hello, &READ, 0, None, &mut tr)? {
            (WireResponse::Hello { .. }, _) => Ok(conn),
            (other, _) => Err(format!("handshake refused: {other:?}")),
        }
    }

    /// Send one request and read its response; also returns the raw
    /// request and response payloads.
    fn call(
        &mut self,
        req: &WireRequest,
        names: &Names,
        rid: u64,
        parent: SpanId,
        tr: &mut Tracer,
    ) -> Result<(WireResponse, Frames), String> {
        let payload = tr.span(names.encode, rid, parent, || req.encode());
        let stream = &mut self.stream;
        let reply = tr.span(names.roundtrip, rid, parent, || {
            write_frame(stream, &payload).map_err(|e| format!("send: {e}"))?;
            read_frame(stream, MAX_FRAME_LEN).map_err(|e| format!("receive: {e:?}"))
        })?;
        let resp = tr.span(names.decode, rid, parent, || WireResponse::decode(&reply));
        let resp = resp.map_err(|e| format!("decode: {e:?}"))?;
        Ok((resp, (payload, reply)))
    }
}

/// Sleep until `due`, spinning through the last stretch so the
/// generator is not late by the scheduler's wake-up slack.
fn wait_until(due: Instant) {
    const SPIN: Duration = Duration::from_micros(150);
    loop {
        let now = Instant::now();
        if now >= due {
            return;
        }
        let left = due - now;
        if left > SPIN {
            std::thread::sleep(left - SPIN);
        } else {
            std::hint::spin_loop();
        }
    }
}

#[derive(Default)]
struct ReaderResult {
    lat_us: Vec<f64>,
    late_us: Vec<f64>,
    elapsed_s: f64,
    failed: u64,
    frames: Vec<Frames>,
}

fn reader(
    conn: &mut Conn,
    inputs: &Inputs,
    t0: Instant,
    seconds: f64,
    tr: &mut Tracer,
) -> ReaderResult {
    let mut r = ReaderResult::default();
    let period = Duration::from_secs_f64(1.0 / READ_RATE);
    for j in 0u32.. {
        let due = t0 + period * j;
        if (due - t0).as_secs_f64() >= seconds {
            break;
        }
        wait_until(due);
        r.late_us.push(us_since(due));
        let Query { text, tau } = inputs.query(j as usize);
        let req = WireRequest::Search(SearchCall::new(text.as_str()).tau(*tau));
        let root = tr.begin(READ.root, u64::from(j), None);
        let res = conn.call(&req, &READ, u64::from(j), root, tr);
        tr.end(root);
        r.lat_us.push(us_since(due));
        match res {
            Ok((WireResponse::Search(_), frames)) => {
                if r.frames.len() < CODEC_FRAMES {
                    r.frames.push(frames);
                }
            }
            Ok((other, _)) => {
                eprintln!("read refused: {other:?}");
                r.failed += 1;
            }
            Err(e) => {
                eprintln!("read failed: {e}");
                r.failed += 1;
            }
        }
    }
    r.elapsed_s = t0.elapsed().as_secs_f64();
    r
}

#[derive(Default)]
struct WriterResult {
    lat_us: Vec<f64>,
    failed: u64,
    applied: u64,
    compactions: u64,
    compact_ms: Vec<f64>,
    delta_peak: usize,
}

fn writer(
    conn: &mut Conn,
    inputs: &Inputs,
    base_ids: u64,
    engine: &MutableEngine,
    t0: Instant,
    seconds: f64,
    tr: &mut Tracer,
) -> WriterResult {
    let mut w = WriterResult::default();
    let period = Duration::from_secs_f64(seconds * WRITE_SPAN / inputs.writes.len().max(1) as f64);
    let mut live: Vec<u64> = (0..base_ids).collect();
    let mut footprint = engine.with_index(MutableIndex::delta_footprint);
    for (k, op) in inputs.writes.iter().enumerate() {
        let due = t0 + period * u32::try_from(k).unwrap_or(u32::MAX);
        wait_until(due);
        let req = match op {
            WriteOp::Insert(text) => WireRequest::Insert { text: text.clone() },
            WriteOp::Upsert { pick, text } => WireRequest::Upsert {
                id: live[(*pick % live.len() as u64) as usize],
                text: text.clone(),
            },
            WriteOp::Delete { pick } => WireRequest::Delete {
                id: live.swap_remove((*pick % live.len() as u64) as usize),
            },
        };
        let sent = Instant::now();
        let root = tr.begin(WRITE.root, k as u64, None);
        let res = conn.call(&req, &WRITE, k as u64, root, tr);
        tr.end(root);
        w.lat_us.push(us_since(due));
        let roundtrip_ms = us_since(sent) / 1e3;
        match res {
            Ok((WireResponse::Insert { id }, _)) => {
                live.push(id);
                w.applied += 1;
            }
            Ok((WireResponse::Upsert { .. } | WireResponse::Delete { .. }, _)) => w.applied += 1,
            Ok((other, _)) => {
                eprintln!("write refused: {other:?}");
                w.failed += 1;
            }
            Err(e) => {
                eprintln!("write failed: {e}");
                w.failed += 1;
            }
        }
        // Compaction runs inline on the mutation that trips the drift
        // budget; it shows as the delta footprint dropping.
        let now = engine.with_index(MutableIndex::delta_footprint);
        if now < footprint {
            w.compactions += 1;
            w.compact_ms.push(roundtrip_ms);
        }
        footprint = now;
        w.delta_peak = w.delta_peak.max(now);
    }
    w
}

struct Setup {
    server: ServerHandle,
    base_ids: u64,
}

fn setup(inputs: &Inputs) -> Result<Setup, String> {
    let index =
        MutableIndex::from_collection(Box::new(collection(&inputs.words)), IndexOptions::default())
            .map_err(|e| format!("mutable index: {e}"))?;
    let base_ids = index.live_len() as u64;
    let mut scfg = ServerConfig::default();
    scfg.idle_timeout = Duration::from_secs(600);
    scfg.read_timeout = CALL_TIMEOUT;
    let server =
        ServerHandle::spawn(MutableEngine::new(index), scfg).map_err(|e| format!("spawn: {e}"))?;
    Ok(Setup { server, base_ids })
}

/// What one open-loop phase observed.
struct Phase {
    read: ReaderResult,
    write: WriterResult,
    stats: WireStats,
    queue_depth_max: u64,
    tracer: Tracer,
}

fn phase(
    s: &Setup,
    reader_conn: &mut Conn,
    inputs: &Inputs,
    seconds: f64,
) -> Result<Phase, String> {
    let mut writer_conn = Conn::connect(s.server.addr())?;
    let t0 = Instant::now() + Duration::from_millis(20);
    let mut rt = Tracer::new(t0, true);
    let mut wt = Tracer::new(t0, true);
    let done = AtomicBool::new(false);
    let mut queue_depth_max = 0;
    let (read, write) = std::thread::scope(|sc| {
        let r = sc.spawn(|| reader(reader_conn, inputs, t0, seconds, &mut rt));
        let w = sc.spawn(|| {
            let w = writer(
                &mut writer_conn,
                inputs,
                s.base_ids,
                s.server.engine(),
                t0,
                seconds,
                &mut wt,
            );
            done.store(true, Ordering::Release);
            w
        });
        // Sample the admission queue in process; this thread issues no
        // requests.
        while !(r.is_finished() && done.load(Ordering::Acquire)) {
            queue_depth_max = queue_depth_max.max(s.server.wire_stats().queue_depth);
            std::thread::sleep(Duration::from_millis(2));
        }
        (
            r.join().expect("reader thread panicked"),
            w.join().expect("writer thread panicked"),
        )
    });
    let stats = match reader_conn.call(&WireRequest::Stats, &READ, 0, None, &mut Tracer::off())? {
        (WireResponse::Stats(st), _) => st,
        (other, _) => return Err(format!("stats refused: {other:?}")),
    };
    rt.absorb(wt);
    Ok(Phase {
        read,
        write,
        stats,
        queue_depth_max,
        tracer: rt,
    })
}

/// After the run: remote SF must equal an in-process Scan over the
/// server's final state.
fn gate(s: &Setup, conn: &mut Conn, inputs: &Inputs, seed: u64, out: &mut Outcome) {
    let engine = s.server.engine();
    for i in inputs.gate_sample(seed, GATE_QUERIES) {
        let Query { text, tau } = inputs.query(i);
        let req = WireRequest::Search(SearchCall::new(text.as_str()).tau(*tau));
        let mut tr = Tracer::off();
        let remote = match conn.call(&req, &READ, 0, None, &mut tr) {
            Ok((WireResponse::Search(reply), _)) => {
                Some(reply.matches.iter().map(|m| (m.record, m.score)).collect())
            }
            _ => None,
        };
        let q = engine.prepare_query_str(text);
        let scan = MutableSearchRequest::new(&q)
            .tau(*tau)
            .algorithm(AlgorithmKind::Scan);
        let local = engine
            .search(&scan)
            .ok()
            .map(|o| o.results.iter().map(|m| (m.record.0, m.score)).collect());
        out.attempted += 1;
        let same = match (remote, local) {
            (Some(a), Some(b)) => same_within(a, b),
            _ => false,
        };
        if !same {
            eprintln!("gate mismatch against Scan: {text:?} tau={tau}");
            out.mismatches += 1;
        }
    }
}

/// One traced open-loop pass from a fresh server: reads and writes
/// side by side, then the Scan gate over the final state.
pub fn serve_pass(inputs: &Inputs, cfg: &Cfg, out: &mut Outcome) -> Result<(), String> {
    let s = setup(inputs)?;
    let mut conn = Conn::connect(s.server.addr())?;
    let p = phase(&s, &mut conn, inputs, cfg.sizes.serve_seconds)?;
    out.attempted += (p.read.lat_us.len() + p.write.lat_us.len()) as u64;
    out.failed += p.read.failed + p.write.failed;
    layer_metrics(&p, out);
    gate(&s, &mut conn, inputs, cfg.seed, out);
    out.add_trace("serve", &p.tracer, &cfg.trace_path("serve"));
    drop(conn);
    let drain = s.server.shutdown();
    out.note("serve reads", p.read.lat_us.len());
    out.note("serve writes applied", p.write.applied);
    out.note("serve client read p50 us", median(&p.read.lat_us));
    out.note("serve client read mean us", mean(&p.read.lat_us));
    out.note("server drain: served", drain.served);
    Ok(())
}

fn layer_metrics(p: &Phase, out: &mut Outcome) {
    let client_p50 = median(&p.read.lat_us);
    let w = &p.write;
    out.set("segment.mutations", w.applied as f64);
    out.set("segment.compactions", w.compactions as f64);
    out.set("segment.compact_ms", median(&w.compact_ms));
    out.set("segment.delta_records_peak", w.delta_peak as f64);
    out.set("write_p50_us", median(&w.lat_us));
    out.set("write_p99_us", percentile(&w.lat_us, 99.0));
    let st = &p.stats;
    out.set(
        "segment.records_scanned_per_query",
        st.records_scanned as f64 / st.queries.max(1) as f64,
    );
    out.set("server.search_p50_us", st.p50_us as f64);
    out.set("server.search_p99_us", st.p99_us as f64);
    out.set("server.overhead_p50_us", client_p50 - st.p50_us as f64);
    out.set("server.shed", st.shed as f64);
    out.set("server.queue_depth_max", p.queue_depth_max as f64);
    out.set("loadgen.late_p99_us", percentile(&p.read.late_us, 99.0));

    // Codec cost on this run's own search frames, both directions.
    let frames = &p.read.frames;
    let n = frames.len().max(1) as f64;
    out.set(
        "api.request_bytes",
        frames.iter().map(|f| f.0.len()).sum::<usize>() as f64 / n,
    );
    out.set(
        "api.response_bytes",
        frames.iter().map(|f| f.1.len()).sum::<usize>() as f64 / n,
    );
    let decoded: Vec<(WireRequest, WireResponse)> = frames
        .iter()
        .filter_map(|(q, r)| Some((WireRequest::decode(q).ok()?, WireResponse::decode(r).ok()?)))
        .collect();
    let (_, enc_s) = timed(|| {
        for (q, r) in &decoded {
            std::hint::black_box((q.encode(), r.encode()));
        }
    });
    let (_, dec_s) = timed(|| {
        for (q, r) in frames {
            let _ = std::hint::black_box((WireRequest::decode(q), WireResponse::decode(r)));
        }
    });
    out.set("api.encode_us", enc_s * 1e6 / decoded.len().max(1) as f64);
    out.set("api.decode_us", dec_s * 1e6 / n);
}

/// The compaction count of one seeded write schedule (determinism
/// self-check).
#[cfg(test)]
pub fn compactions(seed: u64, sizes: crate::inputs::Sizes) -> (u64, u64) {
    let inputs = Inputs::generate(seed, sizes);
    let s = setup(&inputs).expect("setup");
    let mut conn = Conn::connect(s.server.addr()).expect("connect");
    let p = phase(&s, &mut conn, &inputs, sizes.serve_seconds).expect("phase");
    drop(conn);
    s.server.shutdown();
    (p.write.compactions, p.write.applied)
}
