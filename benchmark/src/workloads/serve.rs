//! serve-zipf: an in-process `snoop serve` daemon (2 workers, one engine
//! thread, MVA backend, a store pre-seeded with half the request pool)
//! under 2 closed-loop clients posting 8-scenario batches drawn Zipf(1.0)
//! from a 20k-scenario pool. Callers wait for replies, so the loop is
//! closed: a slower daemon receives proportionally less load.

use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};

use snoop_mva::engine::{BackendId, DiskStore, Engine, MvaBackend, Scenario, StoreConfig};
use snoop_numeric::exec::ExecOptions;
use snoop_numeric::json::JsonValue;
use snoop_serve::{ServeConfig, ServeSummary, Server, ShutdownHandle};

use super::{host_reference, median_secs, scale, Options, Resource, WorkDir};
use crate::gen;
use crate::http::{self, Done};
use crate::metrics::{ratio, Report};
use crate::rng::{SplitMix64, Zipf};
use crate::spans::Tracer;
use crate::stats;

const POOL: usize = 20_000;
const BATCH: usize = 8;
const CLIENTS: usize = 2;
const WARMUP_S: f64 = 2.0;
/// `Server::bind`s timed before the run, and again after it.
const BINDS: usize = 5;
/// Requests per client whose answers form the digest (all fall in the
/// warm-up, whatever the daemon's speed).
const DIGEST_REQUESTS: usize = 50;
/// Violation lines kept per client (the count is always exact).
const MAX_VIOLATIONS: usize = 10;

/// Inputs every client reads.
struct Shared {
    addr: SocketAddr,
    pool: Vec<String>,
    /// Popularity rank → pool index.
    by_rank: Vec<usize>,
    zipf: Zipf,
    /// `Evaluation::to_json` of each pool scenario from a fresh engine.
    reference: Vec<String>,
}

/// One request as the client saw it.
#[derive(Debug, Clone, Copy, Default)]
struct Sample {
    ok: bool,
    status: u16,
    io_error: bool,
    latency_ms: f64,
    ttfb_ms: f64,
    queue_ms: f64,
    server_ms: f64,
    bytes: f64,
}

struct Client {
    id: u64,
    rng: SplitMix64,
    sent: usize,
    digest: Vec<u8>,
    iterations: Vec<f64>,
    violations: Vec<String>,
    failed: u64,
    tracer: Tracer,
    parsed_bytes: usize,
}

impl Client {
    fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.violations.len() < MAX_VIOLATIONS {
            self.violations.push(what);
        }
    }

    /// One closed-loop request: draw a batch, post it, check every answer.
    fn request(&mut self, shared: &Shared) -> Sample {
        let picks: Vec<usize> = (0..BATCH)
            .map(|_| shared.by_rank[shared.zipf.sample(&mut self.rng)])
            .collect();
        let texts: Vec<&str> = picks.iter().map(|&k| shared.pool[k].as_str()).collect();
        let body = gen::batch_json(&texts);
        let raw = http::post("/eval", &body);
        let id = self.id << 32 | self.sent as u64;
        self.sent += 1;
        let reply = self
            .tracer
            .span("serve.request", id, |_| http::exchange(shared.addr, &raw));
        if self.tracer.enabled() {
            // The daemon's parse of this body, repeated client-side: the
            // scenario layer on ~1 KB inputs.
            let parsed = self.tracer.span("scenario.parse", id, |_| {
                Scenario::parse_batch(&body).is_ok()
            });
            self.parsed_bytes += body.len();
            if !parsed {
                self.fail(format!("request {id:x}: client-side parse failed"));
            }
        }
        let reply = match reply {
            Ok(reply) => reply,
            Err(e) => {
                self.fail(format!("request {id:x}: {e}"));
                return Sample {
                    io_error: true,
                    ..Sample::default()
                };
            }
        };
        let mut sample = Sample {
            status: reply.status,
            latency_ms: reply.total_s * 1e3,
            ttfb_ms: reply.ttfb_s * 1e3,
            bytes: reply.bytes as f64,
            ..Sample::default()
        };
        let text = String::from_utf8_lossy(&reply.body);
        if reply.status != 200 {
            self.fail(format!("request {id:x}: status {}: {text}", reply.status));
            return sample;
        }
        let (lines, done) = match http::parse_eval_stream(&text) {
            Ok(parsed) => parsed,
            Err(e) => {
                self.fail(format!("request {id:x}: {e}"));
                return sample;
            }
        };
        let mut ok =
            done == Done {
                errors: 0,
                jobs: BATCH as u64,
                ..done
            } && lines.len() == BATCH;
        for line in &lines {
            let expected = picks
                .get(line.scenario)
                .map(|&k| shared.reference[k].as_str());
            ok &= expected == Some(line.evaluation);
        }
        if !ok {
            self.fail(format!(
                "request {id:x}: answers differ from the fresh-engine reference: {text}"
            ));
            return sample;
        }
        if self.sent <= DIGEST_REQUESTS {
            for line in &lines {
                self.digest.extend_from_slice(line.evaluation.as_bytes());
                let iterations =
                    http::field(line.evaluation, "iterations").and_then(|v| v.parse().ok());
                self.iterations.push(iterations.unwrap_or(0.0));
            }
        }
        sample.ok = true;
        sample.queue_ms = lines.first().map_or(0.0, |l| l.queue_wait_ms);
        sample.server_ms = done.wall_ms;
        sample
    }
}

/// Runs every client closed-loop for `seconds`, recording spans when
/// `traced`; returns the samples and the phase's wall time.
fn phase(
    clients: &mut [Client],
    shared: &Shared,
    seconds: f64,
    traced: Option<Instant>,
) -> (Vec<Sample>, f64) {
    let started = Instant::now();
    let deadline = started + Duration::from_secs_f64(seconds);
    let samples = std::thread::scope(|s| {
        let handles: Vec<_> = clients
            .iter_mut()
            .map(|c| {
                if let Some(epoch) = traced {
                    c.tracer = Tracer::new(true, epoch);
                }
                s.spawn(move || {
                    let mut out = Vec::new();
                    while Instant::now() < deadline {
                        out.push(c.request(shared));
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("client threads do not panic"))
            .collect::<Vec<_>>()
    });
    (samples, started.elapsed().as_secs_f64())
}

/// Stops and joins the daemon however the run ends.
struct Daemon {
    handle: ShutdownHandle,
    join: Option<std::thread::JoinHandle<Result<ServeSummary, String>>>,
}

impl Daemon {
    fn stop(&mut self) -> Result<ServeSummary, String> {
        self.handle.shutdown();
        match self.join.take() {
            Some(join) => join
                .join()
                .map_err(|_| "the daemon thread panicked".to_string())?,
            None => Err("the daemon was already stopped".to_string()),
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if self.join.is_some() {
            let _ = self.stop();
        }
    }
}

/// Sums a `/metrics` span family by leaf name: (seconds, calls).
fn metrics_span(doc: &JsonValue, leaf: &str) -> (f64, f64) {
    let spans = doc
        .get("spans")
        .and_then(JsonValue::as_object)
        .unwrap_or(&[]);
    spans
        .iter()
        .filter(|(path, _)| path == leaf || path.ends_with(&format!("/{leaf}")))
        .fold((0.0, 0.0), |(s, c), (_, v)| {
            let get = |k| v.get(k).and_then(JsonValue::as_f64).unwrap_or(0.0);
            (s + get("total_ms") / 1e3, c + get("calls"))
        })
}

fn metrics_counter(doc: &JsonValue, name: &str) -> f64 {
    doc.get("counters")
        .and_then(|c| c.get(name))
        .and_then(JsonValue::as_f64)
        .unwrap_or(0.0)
}

/// Runs the workload.
pub fn run(opts: &Options) -> Result<(Report, Tracer), String> {
    let work = WorkDir::new("serve-zipf")?;
    let mut report = Report::new("serve-zipf", opts.seed, opts.traced);

    // Untimed: the pool, its fresh-engine reference answers, and a store
    // holding every other popularity rank.
    let pool = gen::serve_pool(opts.seed, POOL);
    let mut scenarios = Vec::with_capacity(POOL);
    for chunk in pool.chunks(BATCH) {
        scenarios
            .extend(Scenario::parse_batch(&gen::batch_json(chunk)).map_err(|e| e.to_string())?);
    }
    let reference_engine = Engine::new()
        .with_backend(MvaBackend)
        .with_exec(ExecOptions::with_threads(2));
    let reference: Vec<String> = reference_engine
        .evaluate_batch(&scenarios)
        .into_iter()
        .map(|r| r.result.map(|e| e.to_json()).map_err(|e| e.to_string()))
        .collect::<Result<_, _>>()?;
    let mut by_rank: Vec<usize> = (0..POOL).collect();
    SplitMix64::stream(opts.seed, "serve-zipf/popularity").shuffle(&mut by_rank);
    let store_dir = work.path.join("store");
    let store =
        DiskStore::open_config(&store_dir, StoreConfig::default()).map_err(|e| e.to_string())?;
    let mut put_us = Vec::with_capacity(POOL / 2);
    for &k in by_rank.iter().step_by(2) {
        let started = Instant::now();
        store
            .put(
                &Engine::job_key(BackendId::Mva, &scenarios[k]),
                reference[k].as_bytes(),
            )
            .map_err(|e| e.to_string())?;
        put_us.push(started.elapsed().as_secs_f64() * 1e6);
    }
    drop(store);
    let open_s = median_secs(5, || {
        DiskStore::open_config(&store_dir, StoreConfig::default())
            .map(drop)
            .map_err(|e| e.to_string())
    })?;

    // Set-up: binding the daemon, which opens the store over its entries.
    let config = ServeConfig {
        listen: "127.0.0.1:0".to_string(),
        workers: 2,
        backends: vec![BackendId::Mva],
        engine_threads: 1,
        store_dir: Some(store_dir.clone()),
        ..ServeConfig::default()
    };
    // Timed BINDS times here and as many after the run, so a slow stretch
    // of the host at start-up cannot set the median alone; each bind comes
    // right after the Compute kernel, which scales out the host's drift.
    let (mut binds, mut bind_reference) = (Vec::new(), Vec::new());
    let mut bind = || {
        bind_reference.push(host_reference(Resource::Compute));
        let started = Instant::now();
        let server = Server::bind(config.clone()).map_err(|e| e.to_string());
        binds.push(started.elapsed().as_secs_f64());
        server
    };
    for _ in 1..BINDS {
        drop(bind()?);
    }
    let server = bind()?;
    let addr = server.local_addr();
    let engine = Arc::clone(server.engine());
    let mut daemon = Daemon {
        handle: server.shutdown_handle(),
        join: Some(std::thread::spawn(move || {
            server.run().map_err(|e| e.to_string())
        })),
    };

    let shared = Shared {
        addr,
        pool,
        by_rank,
        zipf: Zipf::new(POOL, 1.0),
        reference,
    };
    let epoch = Instant::now();
    let mut clients: Vec<Client> = (0..CLIENTS)
        .map(|c| Client {
            id: c as u64,
            rng: SplitMix64::stream(opts.seed, &format!("serve-zipf/client/{c}")),
            sent: 0,
            digest: Vec::new(),
            iterations: Vec::new(),
            violations: Vec::new(),
            failed: 0,
            tracer: Tracer::new(false, epoch),
            parsed_bytes: 0,
        })
        .collect();

    let (warmup, _) = phase(&mut clients, &shared, WARMUP_S, None);
    let untraced_s = if opts.traced {
        opts.seconds / 3.0
    } else {
        opts.seconds
    };
    let (timed, timed_wall) = phase(&mut clients, &shared, untraced_s, None);
    let traced = opts.traced.then(|| {
        phase(
            &mut clients,
            &shared,
            opts.seconds - untraced_s,
            Some(epoch),
        )
    });
    let metrics_doc = if opts.traced {
        let reply = http::exchange(addr, &http::get("/metrics"))?;
        Some(JsonValue::parse(&String::from_utf8_lossy(&reply.body)).map_err(|e| e.to_string())?)
    } else {
        None
    };
    let summary = daemon.stop()?;
    for _ in 0..BINDS {
        drop(bind()?);
    }
    report.set(
        "setup_s",
        stats::median(&scale(&binds, &bind_reference, Resource::Compute)),
    );
    report.notes.push(format!(
        "setup_s is the median of {} Server::binds, each scaled by the Compute kernel timed \
         before it; as measured {} s",
        binds.len(),
        stats::median(&binds)
    ));

    let rps = |samples: &[Sample], wall: f64| samples.iter().filter(|s| s.ok).count() as f64 / wall;
    let latency: Vec<f64> = timed.iter().map(|s| s.latency_ms).collect();
    report.set("ops_per_s", rps(&timed, timed_wall));
    report.set("p50_ms", stats::median(&latency));
    let all = warmup.len() + timed.len() + traced.as_ref().map_or(0, |(s, _)| s.len());
    report.attempted = all as u64;
    report.notes.push(format!(
        "ops_per_s counts completed POST /eval requests ({BATCH} scenarios each) from {CLIENTS} closed-loop clients; \
         p50_ms over {} requests",
        latency.len()
    ));
    if let Some(p) = stats::tail_percentile(latency.len()) {
        report.notes.push(format!(
            "client latency p{p} {} ms",
            stats::percentile(&latency, p)
        ));
    }
    report.check(summary.rejected == 0, || {
        format!("{} requests were refused with 429", summary.rejected)
    });
    let mut digest = Vec::new();
    let mut iterations = Vec::new();
    for c in &clients {
        report.failed += c.failed;
        report.violations.extend(c.violations.iter().cloned());
        digest.extend_from_slice(&c.digest);
        iterations.extend_from_slice(&c.iterations);
    }
    report.check(clients.iter().all(|c| c.sent >= DIGEST_REQUESTS), || {
        "too few requests for the digest".into()
    });
    report.digest = crate::fnv1a(&digest);

    let (Some((samples, wall)), Some(doc)) = (traced, metrics_doc) else {
        return Ok((report, Tracer::new(false, epoch)));
    };
    let pick = |f: fn(&Sample) -> f64| samples.iter().filter(|s| s.ok).map(f).collect::<Vec<f64>>();
    let (queue, server_ms) = (pick(|s| s.queue_ms), pick(|s| s.server_ms));
    let client_ms = pick(|s| s.latency_ms);
    let unaccounted = pick(|s| s.latency_ms - s.queue_ms - s.server_ms);
    report.set("serve.queue_wait_ms_p50", stats::percentile(&queue, 50.0));
    report.set("serve.queue_wait_ms_p99", stats::percentile(&queue, 99.0));
    report.set(
        "serve.server_wall_ms_p50",
        stats::percentile(&server_ms, 50.0),
    );
    report.set(
        "serve.server_wall_ms_p99",
        stats::percentile(&server_ms, 99.0),
    );
    report.set(
        "serve.unaccounted_ms_p50",
        stats::percentile(&unaccounted, 50.0),
    );
    report.set(
        "serve.unaccounted_ms_p99",
        stats::percentile(&unaccounted, 99.0),
    );
    report.set(
        "serve.ttfb_ms_p50",
        stats::percentile(&pick(|s| s.ttfb_ms), 50.0),
    );
    let tail = stats::tail_percentile(client_ms.len()).unwrap_or(50.0);
    report.set("serve.tail_ms", stats::percentile(&client_ms, tail));
    report.set("serve.bytes_per_req", stats::median(&pick(|s| s.bytes)));
    report.set(
        "serve.non_200",
        samples
            .iter()
            .filter(|s| !s.io_error && s.status != 200)
            .count() as f64,
    );
    report.set(
        "serve.io_errors",
        samples.iter().filter(|s| s.io_error).count() as f64,
    );
    report.notes.push(format!(
        "serve.tail_ms is client latency p{tail} over {} traced requests",
        client_ms.len()
    ));
    report.set("bench.units", samples.len() as f64);
    report.set(
        "bench.trace_overhead_pct",
        (rps(&timed, timed_wall) / rps(&samples, wall) - 1.0) * 100.0,
    );

    let mut tracer = Tracer::new(true, epoch);
    let mut parsed_bytes = 0;
    for c in &mut clients {
        parsed_bytes += c.parsed_bytes;
        tracer.absorb(std::mem::replace(&mut c.tracer, Tracer::new(false, epoch)));
    }
    let parse_s = tracer.total_s("scenario.parse");
    report.set("scenario.parse_s", parse_s);
    report.set(
        "scenario.parse_mb_per_s",
        ratio(parsed_bytes as f64 / 1e6, parse_s),
    );
    report.set(
        "scenario.parse_share",
        parse_s / tracer.total_s("serve.request"),
    );

    let (batch_s, _) = metrics_span(&doc, "engine.batch");
    let (mva_s, mva_calls) = metrics_span(&doc, "mva_solve");
    report.set("engine.batch_s", batch_s);
    report.set("engine.overhead_s", batch_s - mva_s);
    let cache = engine.cache_stats();
    report.set("engine.cache_hit_ratio", cache.hit_rate());
    report.set("engine.cache_evictions", cache.evictions as f64);
    report.set("engine.computed", metrics_counter(&doc, "engine.computed"));
    report.set("mva.solve_s", mva_s);
    report.set("mva.us_per_solve", ratio(mva_s * 1e6, mva_calls));
    report.set("mva.iterations_p50", stats::percentile(&iterations, 50.0));
    report.set("mva.iterations_p99", stats::percentile(&iterations, 99.0));
    report.set(
        "mva.no_convergence",
        metrics_counter(&doc, "fixed_point.no_convergence"),
    );
    report.set(
        "mva.diverged",
        metrics_counter(&doc, "fixed_point.diverged"),
    );
    report.set("store.hits", metrics_counter(&doc, "store.hits"));
    report.set("store.misses", metrics_counter(&doc, "store.misses"));
    report.set("store.writes", metrics_counter(&doc, "store.writes"));
    let hit_p50_ms = doc
        .get("histograms")
        .and_then(|h| h.get("store.hit_ms"))
        .and_then(|h| h.get("p50"))
        .and_then(JsonValue::as_f64)
        .unwrap_or(0.0);
    report.set("store.get_us_p50", hit_p50_ms * 1e3);
    report.set("store.put_us_p50", stats::percentile(&put_us, 50.0));
    report.set("store.open_s", open_s);
    report.notes.push(
        "daemon-side layers come from GET /metrics; counts cover the whole run (warm-up included)"
            .into(),
    );
    Ok((report, tracer))
}
