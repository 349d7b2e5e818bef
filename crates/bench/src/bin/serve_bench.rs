//! Load generator for the `dbpim-serve` daemon.
//!
//! Spawns an in-process daemon, then measures what the warm artifact cache
//! buys: the cold first request per model (full quantize → FTA → compile →
//! simulate), warm repeats of the same query, and aggregate requests/sec
//! under concurrent clients. Results are recorded in EXPERIMENTS.md
//! ("Serving layer: cold vs. warm request latency").
//!
//! ```text
//! serve_bench [--clients <n>] [--requests <n>] [--closed-loop]
//!             [pipeline flags]
//! ```
//!
//! The pipeline flags (`--width`, `--seed`, `--cal`, `--classes`,
//! `--operand-width`, …) shape the daemon's pipeline exactly as they shape
//! every other experiment binary.
//!
//! `--closed-loop` replaces the latency table with a saturation probe: N
//! persistent clients hammer one warm point to find the **max sustainable
//! request rate**, then 4x as many connect-per-request clients offer ~4x
//! that load against a daemon with a tiny accept backlog — measuring how
//! many connections admission control turns away with a structured
//! `Overloaded` answer while the daemon itself stays healthy (verified by
//! a final ping + stats round trip). Results are recorded in
//! EXPERIMENTS.md ("Serving layer: closed-loop saturation").

use std::time::{Duration, Instant};

use db_pim::flags::{self, Flag, Flags, OptionsError, PIPELINE_FLAGS};
use dbpim_bench::ExperimentOptions;
use dbpim_nn::ModelKind;
use dbpim_serve::{Client, ClientError, ErrorKind, RunQuery, ServeConfig, Server};

/// The load-shape flags, on top of the pipeline flags.
const LOAD_FLAGS: &[Flag] = &[
    Flag::value("--clients", "<n>"),
    Flag::value("--requests", "<n>"),
    Flag::switch("--closed-loop"),
];

/// The load shape, read from [`LOAD_FLAGS`].
struct LoadOptions {
    /// Concurrent clients in the throughput phase.
    clients: usize,
    /// Warm requests per client in the throughput phase (and warm repeats
    /// in the latency phase).
    requests: usize,
    /// Run the closed-loop saturation probe instead of the latency table.
    closed_loop: bool,
}

impl LoadOptions {
    fn from_flags(flags: &Flags) -> Result<Self, OptionsError> {
        let positive = |flag: &str, default: usize| match flags.get::<usize>(flag)? {
            Some(0) => Err(OptionsError::new(flag, "must be positive")),
            value => Ok(value.unwrap_or(default)),
        };
        Ok(Self {
            clients: positive("--clients", 4)?,
            requests: positive("--requests", 16)?,
            closed_loop: flags.switch("--closed-loop"),
        })
    }
}

fn millis(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Min / median / mean of a latency sample.
fn summarize(mut samples: Vec<Duration>) -> (f64, f64, f64) {
    samples.sort();
    let min = millis(samples[0]);
    let median = millis(samples[samples.len() / 2]);
    let mean = millis(samples.iter().sum::<Duration>()) / samples.len() as f64;
    (min, median, mean)
}

fn main() {
    let (options, load) = flags::from_args("serve_bench", &[PIPELINE_FLAGS, LOAD_FLAGS], |flags| {
        Ok((ExperimentOptions::from_flags(flags)?, LoadOptions::from_flags(flags)?))
    });
    // Fidelity is a per-request opt-in over the wire; the load shapes below
    // never request it, so the daemon keeps evaluation capacity configured
    // but idle.
    let pipeline = options.pipeline_config();

    let handle = Server::spawn(ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        threads: load.clients.max(2),
        poll_interval: Duration::from_millis(100),
        pipeline,
        // The saturation probe needs admission control to actually bite:
        // with the default 64-deep backlog every overload connection would
        // just queue.
        max_pending_connections: if load.closed_loop { 2 } else { 64 },
        ..ServeConfig::default()
    })
    .unwrap_or_else(|e| {
        eprintln!("serve_bench: cannot start daemon: {e}");
        std::process::exit(1);
    });
    let addr = handle.addr();

    if load.closed_loop {
        closed_loop_probe(&handle, &load, &options);
    }

    println!("# Serving layer: cold vs. warm request latency\n");
    println!(
        "In-process `dbpim-served` on {addr}, width_mult {}, {} classes, operand width {}, \
         {} warm repeats, {} concurrent clients.\n",
        options.width_mult, options.classes, options.operand_width, load.requests, load.clients,
    );
    println!(
        "| model | cold first request | warm min | warm median | warm mean | cold / warm median |"
    );
    println!("|---|---|---|---|---|---|");

    let mut client = Client::connect(addr).unwrap_or_else(|e| {
        eprintln!("serve_bench: cannot connect: {e}");
        std::process::exit(1);
    });

    for kind in ModelKind::all() {
        let query = RunQuery::new(kind);
        let cold_start = Instant::now();
        if let Err(e) = client.run_model(&query) {
            eprintln!("serve_bench: cold {} failed: {e}", kind.name());
            std::process::exit(1);
        }
        let cold = cold_start.elapsed();

        let mut warm = Vec::with_capacity(load.requests);
        for _ in 0..load.requests {
            let start = Instant::now();
            if let Err(e) = client.run_model(&query) {
                eprintln!("serve_bench: warm {} failed: {e}", kind.name());
                std::process::exit(1);
            }
            warm.push(start.elapsed());
        }
        let (min, median, mean) = summarize(warm);
        println!(
            "| {} | {:.1} ms | {:.1} ms | {:.1} ms | {:.1} ms | {:.1}x |",
            kind.name(),
            millis(cold),
            min,
            median,
            mean,
            millis(cold) / median,
        );
    }

    // Throughput phase: every client hammers the same warm (model, width)
    // point concurrently.
    let total_requests = load.clients * load.requests;
    let throughput_start = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..load.clients {
            scope.spawn(|| {
                let mut client = Client::connect(addr).expect("throughput client connects");
                let query = RunQuery::new(ModelKind::AlexNet);
                for _ in 0..load.requests {
                    client.run_model(&query).expect("throughput request succeeds");
                }
            });
        }
    });
    let elapsed = throughput_start.elapsed();
    println!(
        "\nThroughput: {} clients x {} warm `RunModel` requests = {} requests in {:.2} s \
         -> **{:.1} requests/sec** (single AlexNet artifact set, all served from cache).",
        load.clients,
        load.requests,
        total_requests,
        elapsed.as_secs_f64(),
        total_requests as f64 / elapsed.as_secs_f64(),
    );

    match client.stats() {
        Ok(stats) => println!(
            "\nDaemon counters: {} requests, {} errors, {} connections; cache: {} artifact \
             builds, {} artifact hits, {} compilations, {} program hits, {} resident artifact sets.",
            stats.requests,
            stats.errors,
            stats.connections,
            stats.cache.artifact_misses,
            stats.cache.artifact_hits,
            stats.cache.program_misses,
            stats.cache.program_hits,
            stats.cache.resident_artifacts,
        ),
        Err(e) => eprintln!("serve_bench: stats failed: {e}"),
    }

    if let Err(e) = client.shutdown() {
        eprintln!("serve_bench: shutdown failed: {e}");
        std::process::exit(1);
    }
    if let Err(e) = handle.join() {
        eprintln!("serve_bench: daemon exit failed: {e}");
        std::process::exit(1);
    }
}

/// The closed-loop saturation probe (`--closed-loop`): find the max
/// sustainable warm-request rate, then offer ~4x that load and count the
/// structured `Overloaded` rejections. Never returns.
fn closed_loop_probe(
    handle: &dbpim_serve::ServerHandle,
    load: &LoadOptions,
    options: &ExperimentOptions,
) -> ! {
    const WINDOW: Duration = Duration::from_secs(3);
    let addr = handle.addr();

    // Warm the single (model, width) point every phase reuses.
    let mut probe = Client::connect(addr).unwrap_or_else(|e| {
        eprintln!("serve_bench: cannot connect: {e}");
        std::process::exit(1);
    });
    let query = RunQuery::new(ModelKind::AlexNet);
    if let Err(e) = probe.run_model(&query) {
        eprintln!("serve_bench: warmup failed: {e}");
        std::process::exit(1);
    }

    println!("# Serving layer: closed-loop saturation\n");
    println!(
        "In-process `dbpim-served` on {addr}, width_mult {}, {} worker threads, accept \
         backlog 2, warm AlexNet point, {:?} measurement windows.\n",
        options.width_mult,
        load.clients.max(2),
        WINDOW,
    );

    // Phase 1 — closed loop at the daemon's own concurrency: every worker
    // continuously busy is by definition the max sustainable rate.
    let sustained: usize = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..load.clients)
            .map(|_| {
                scope.spawn(|| {
                    let mut client = Client::connect(addr).expect("closed-loop client connects");
                    let query = RunQuery::new(ModelKind::AlexNet);
                    let deadline = Instant::now() + WINDOW;
                    let mut completed = 0usize;
                    while Instant::now() < deadline {
                        client.run_model(&query).expect("sustained request succeeds");
                        completed += 1;
                    }
                    completed
                })
            })
            .collect();
        workers.into_iter().map(|w| w.join().expect("closed-loop client")).sum()
    });
    let sustainable_rps = sustained as f64 / WINDOW.as_secs_f64();

    // Phase 2 — ~4x offered load: 4x as many clients, each paying a fresh
    // connection per request so every attempt is a fresh admission
    // decision. Attempts either serve or bounce with `Overloaded`.
    let overload_clients = load.clients * 4;
    let results: Vec<(usize, usize, usize)> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..overload_clients)
            .map(|_| {
                scope.spawn(|| {
                    let query = RunQuery::new(ModelKind::AlexNet);
                    let deadline = Instant::now() + WINDOW;
                    let (mut served, mut rejected, mut other) = (0usize, 0usize, 0usize);
                    while Instant::now() < deadline {
                        let outcome =
                            Client::connect(addr).and_then(|mut client| client.run_model(&query));
                        match outcome {
                            Ok(_) => served += 1,
                            Err(ClientError::Server(error))
                                if error.kind == ErrorKind::Overloaded =>
                            {
                                rejected += 1;
                            }
                            // A connection torn down mid-rejection surfaces
                            // as an I/O error; same admission outcome.
                            Err(ClientError::Io(_) | ClientError::Protocol(_)) => rejected += 1,
                            Err(e) => {
                                eprintln!("serve_bench: unexpected overload failure: {e}");
                                other += 1;
                            }
                        }
                    }
                    (served, rejected, other)
                })
            })
            .collect();
        workers.into_iter().map(|w| w.join().expect("overload client")).collect()
    });
    let served: usize = results.iter().map(|r| r.0).sum();
    let rejected: usize = results.iter().map(|r| r.1).sum();
    let unexpected: usize = results.iter().map(|r| r.2).sum();
    let offered = served + rejected + unexpected;

    // Health check: the daemon must still answer — no worker died, no
    // state was poisoned.
    if let Err(e) = probe.ping() {
        eprintln!("serve_bench: daemon unhealthy after overload: {e}");
        std::process::exit(1);
    }
    let stats = probe.stats().unwrap_or_else(|e| {
        eprintln!("serve_bench: stats failed after overload: {e}");
        std::process::exit(1);
    });

    println!("| phase | clients | outcome |");
    println!("|---|---|---|");
    println!(
        "| sustained (closed loop) | {} persistent | {} requests in {:.1} s -> \
         **{sustainable_rps:.1} req/s** |",
        load.clients,
        sustained,
        WINDOW.as_secs_f64(),
    );
    println!(
        "| overload (~4x offered) | {overload_clients} connect-per-request | {offered} attempts: \
         {served} served, {rejected} rejected `Overloaded`, {unexpected} unexpected |",
    );
    println!(
        "\nDaemon after overload: healthy (ping OK); {} requests, {} errors, {} connections, \
         {} overload rejections counted server-side, 0 worker panics observed \
         (all workers answering).",
        stats.requests, stats.errors, stats.connections, stats.rejected_overloaded,
    );

    if let Err(e) = probe.shutdown() {
        eprintln!("serve_bench: shutdown failed: {e}");
        std::process::exit(1);
    }
    std::process::exit(0);
}
