//! A serve segment: `nproc` keep-alive connections in a closed loop
//! against an in-process `modsoc serve` daemon with a fresh store.

use std::ops::Range;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use modsoc_circuitgen::soc::mini_soc;
use modsoc_core::campaign::{unit_key, CampaignUnit};
use modsoc_core::experiment::{run_soc_experiment_guarded, ExperimentOptions};
use modsoc_core::report::render_analyze_report;
use modsoc_core::serve::{http_request, HttpClient, ServeConfig, Server};
use modsoc_core::{RunBudget, SocTdvAnalysis, TdvOptions, WorkerPool};
use modsoc_metrics::json::{self, JsonValue};
use modsoc_metrics::{Counter, MetricsSnapshot, Phase};
use modsoc_perfbench::outcome::{classify, Class, Failure};
use modsoc_perfbench::stats::median;
use modsoc_perfbench::timed_store::{StoreTraffic, TimedBackend};
use modsoc_perfbench::trace::SpanLog;
use modsoc_soc::format::{parse_soc, write_soc};
use modsoc_store::{LocalBackend, ResultStore};

use crate::common::{digest, in_span, ms_since, Section};

/// Client-side socket timeout; a request slower than this is a failure.
const CLIENT_TIMEOUT: Duration = Duration::from_secs(30);

/// Request mix per block of 20: the mix of `modsoc loadgen` (40% hot,
/// 25% cold, 15% dup, 10% oversized, 10% analyze).
const MIX: [(Class, usize); 5] = [
    (Class::Hot, 8),
    (Class::Cold, 5),
    (Class::Dup, 3),
    (Class::Oversized, 2),
    (Class::Analyze, 2),
];

/// The daemon configuration of ci.sh's keep-alive gate
/// (`--workers 2 --keep-alive --batch-max 4`), engine work at `jobs`.
fn serve_config(jobs: usize, store: Arc<ResultStore>) -> ServeConfig {
    ServeConfig {
        workers: 2,
        keep_alive: true,
        batch_max: 4,
        jobs,
        store: Some(store),
        ..ServeConfig::default()
    }
}

/// SplitMix64 step: the seeded request stream.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One request of the stream.
struct Request {
    class: Class,
    path: &'static str,
    body: Arc<str>,
    /// Mini seed of `/experiment` requests; analyze document otherwise.
    seed: u64,
}

fn unit_body(name: &str, seed: u64) -> String {
    format!("{{\"name\": \"{name}\", \"soc\": \"mini\", \"seed\": {seed}, \"timeout_ms\": 20000}}")
}

fn unit_of(body: &str) -> Result<CampaignUnit, String> {
    let doc = json::parse(body).map_err(|e| e.to_string())?;
    CampaignUnit::from_json(&doc, 0).map_err(|e| e.to_string())
}

/// What one request got back.
struct Reply {
    status: Result<u16, std::io::Error>,
    body: String,
    ms: f64,
}

/// The daemon while a section runs, and the section's clients.
struct Running {
    addr: String,
    daemon: JoinHandle<std::io::Result<MetricsSnapshot>>,
    clients: Vec<HttpClient>,
}

/// A bound daemon over a fresh store, plus the request stream and the
/// expected analyze bodies.
pub struct ServeSegment {
    dir: PathBuf,
    server: Option<Server>,
    running: Option<Running>,
    store: Arc<ResultStore>,
    traffic: Option<Arc<StoreTraffic>>,
    requests: Vec<Request>,
    replies: Vec<Option<Reply>>,
    analyze_expected: Vec<String>,
    options: ExperimentOptions,
    jobs: usize,
}

impl Drop for ServeSegment {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

impl ServeSegment {
    /// Open a fresh store under `work`, bind the daemon and generate
    /// `requests` seeded requests. With `log`, the store is wrapped in a
    /// [`TimedBackend`].
    pub fn setup(
        seed: u64,
        requests: usize,
        jobs: usize,
        work: &Path,
        log: Option<&Arc<SpanLog>>,
    ) -> Result<ServeSegment, String> {
        static SETUPS: AtomicUsize = AtomicUsize::new(0);
        let dir = work.join(format!(
            "store-{}-{}",
            std::process::id(),
            SETUPS.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let io = |e: &dyn std::fmt::Display| format!("store {}: {e}", dir.display());
        let (store, traffic) = match log {
            None => (ResultStore::open(&dir).map_err(|e| io(&e))?, None),
            Some(log) => {
                let (backend, _) = LocalBackend::open(&dir).map_err(|e| io(&e))?;
                let traffic = Arc::new(StoreTraffic::default());
                let timed = TimedBackend::new(backend, Arc::clone(log), Arc::clone(&traffic));
                (ResultStore::with_backend(Arc::new(timed)), Some(traffic))
            }
        };
        let store = Arc::new(store);
        let config = serve_config(jobs, Arc::clone(&store));
        let oversized: Arc<str> = "x".repeat(config.max_body_bytes + 1).into();
        let server = Server::bind(config).map_err(|e| format!("binding the daemon: {e}"))?;

        // Analyze requests carry the ITC'02 SOC models as `.soc` text; the
        // expected body is the report on that text as parsed.
        let texts: Vec<String> = crate::paper_sweep::itc02_socs()?
            .iter()
            .map(|(_, soc)| write_soc(soc))
            .collect();
        let analyze_expected = texts
            .iter()
            .map(|text| {
                let soc = parse_soc(text).map_err(|e| e.to_string())?;
                let a = SocTdvAnalysis::compute(&soc, &TdvOptions::tables_3_4())
                    .map_err(|e| format!("{}: {e}", soc.name()))?;
                Ok(render_analyze_report(&soc, &a))
            })
            .collect::<Result<Vec<_>, String>>()?;
        let hot: Arc<str> = unit_body("hot", seed).into();
        // Cold seeds count up from `seed + 1`; dup sits below `seed`.
        let dup_seed = seed.wrapping_sub(1);
        let dup: Arc<str> = unit_body("dup", dup_seed).into();
        let analyze: Vec<Arc<str>> = texts
            .into_iter()
            .map(|text| {
                JsonValue::Object(vec![
                    ("soc".into(), JsonValue::String(text)),
                    ("format".into(), JsonValue::String("text".into())),
                ])
                .to_compact()
                .into()
            })
            .collect();
        let mut rng = seed;
        let mut deck: Vec<Class> = MIX
            .iter()
            .flat_map(|&(class, n)| std::iter::repeat_n(class, n))
            .collect();
        let mut cold = 0u64;
        let total = requests;
        let mut requests = Vec::with_capacity(total);
        while requests.len() < total {
            // Fisher-Yates: every block of the deck is the same mix in a
            // seeded order.
            for i in (1..deck.len()).rev() {
                deck.swap(i, (splitmix(&mut rng) % (i as u64 + 1)) as usize);
            }
            for &class in deck.iter().take(total - requests.len()) {
                requests.push(match class {
                    Class::Hot => Request {
                        class,
                        path: "/experiment",
                        body: Arc::clone(&hot),
                        seed,
                    },
                    Class::Dup => Request {
                        class,
                        path: "/experiment",
                        body: Arc::clone(&dup),
                        seed: dup_seed,
                    },
                    Class::Cold => {
                        cold += 1;
                        let s = seed.wrapping_add(cold);
                        Request {
                            class,
                            path: "/experiment",
                            body: unit_body("cold", s).into(),
                            seed: s,
                        }
                    }
                    Class::Analyze => {
                        let v = splitmix(&mut rng) % analyze.len() as u64;
                        Request {
                            class,
                            path: "/analyze",
                            body: Arc::clone(&analyze[v as usize]),
                            seed: v,
                        }
                    }
                    Class::Oversized => Request {
                        class,
                        path: "/analyze",
                        body: Arc::clone(&oversized),
                        seed: 0,
                    },
                });
            }
        }
        Ok(ServeSegment {
            dir,
            server: Some(server),
            running: None,
            store,
            traffic,
            replies: (0..requests.len()).map(|_| None).collect(),
            requests,
            analyze_expected,
            options: ExperimentOptions::paper_tables_1_2().with_jobs(jobs),
            jobs,
        })
    }

    /// Start the daemon on its own thread.
    pub fn start(&mut self) -> Result<(), String> {
        let server = self.server.take().ok_or("the daemon serves one section")?;
        let addr = server
            .local_addr()
            .map_err(|e| format!("daemon address: {e}"))?
            .to_string();
        let clients = (0..self.jobs)
            .map(|_| HttpClient::new(&addr, CLIENT_TIMEOUT).map_err(|e| e.to_string()))
            .collect::<Result<_, _>>()?;
        let daemon = std::thread::spawn(move || server.run());
        self.running = Some(Running {
            addr,
            daemon,
            clients,
        });
        Ok(())
    }

    /// Drive requests `range` in a closed loop over the `jobs`
    /// keep-alive connections.
    pub fn drive(&mut self, range: Range<usize>, log: Option<&Arc<SpanLog>>) {
        let running = self.running.as_mut().expect("started before driving");
        let requests = &self.requests;
        let next = AtomicUsize::new(range.start);
        let done: Mutex<Vec<(usize, Reply)>> = Mutex::new(Vec::with_capacity(range.len()));
        std::thread::scope(|s| {
            for client in &mut running.clients {
                let (next, done, end) = (&next, &done, range.end);
                s.spawn(move || loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= end {
                        break;
                    }
                    let reply = request(&requests[i], client, i, log);
                    done.lock().expect("reply table poisoned").push((i, reply));
                });
            }
        });
        for (i, reply) in done.into_inner().expect("reply table poisoned") {
            self.replies[i] = Some(reply);
        }
    }

    /// Scrape `/metrics`, drain the daemon, check every driven reply and
    /// merge the results into `section`: each request is an attempted
    /// unit, its body digest joins the section's digests, and the serve
    /// and store layer values join its layer values.
    pub fn finish(&mut self, section: &mut Section) -> Result<(), String> {
        let running = self.running.take().ok_or("the daemon was not started")?;
        let addr = running.addr.as_str();
        let scrape = http_request(addr, "GET", "/metrics", None, CLIENT_TIMEOUT);
        let stop = http_request(addr, "POST", "/shutdown", None, CLIENT_TIMEOUT);
        let drained = running.daemon.join();
        let metrics = scrape
            .map_err(|e| format!("GET /metrics: {e}"))
            .and_then(|r| json::parse(&r.body_text()).map_err(|e| format!("/metrics: {e}")))?;
        stop.map_err(|e| format!("POST /shutdown: {e}"))?;
        match drained {
            Ok(Ok(_)) => {}
            Ok(Err(e)) => return Err(format!("daemon: {e}")),
            Err(_) => return Err("daemon thread panicked".into()),
        }
        let units = self.replies.iter().take_while(|r| r.is_some()).count();
        let replies: Vec<&Reply> = self.replies[..units]
            .iter()
            .map(|r| r.as_ref().expect("driven"))
            .collect();
        // Output checks, after the timed section. Every hot body must be
        // byte-identical, and so must every dup body; hot, dup and cold
        // bodies must match an in-process run of their unit; analyze
        // bodies must equal the in-process report.
        let reqs = &self.requests[..units];
        let served =
            |i: usize, class: Class| reqs[i].class == class && matches!(replies[i].status, Ok(200));
        let first = |class: Class| (0..units).find(|&i| served(i, class));
        let (hot_first, dup_first) = (first(Class::Hot), first(Class::Dup));
        let body_of = |i: Option<usize>| i.map(|i| replies[i].body.as_str());
        // The hot and dup units are checked in-process once each (every
        // other body of the class must equal the first byte for byte);
        // every cold unit individually.
        let checked: Vec<usize> = (0..units)
            .filter(|&i| served(i, Class::Cold))
            .chain(hot_first)
            .chain(dup_first)
            .collect();
        // Reports are identical at any `jobs`, so the reference runs go
        // one per pool worker.
        let reference = self.options.clone().with_jobs(1);
        let expected: Vec<Result<String, String>> = WorkerPool::new(self.jobs)
            .map(&checked, |_, &i| {
                expected_fields(&reference, reqs[i].seed, &reqs[i].body)
            });
        let mut fields_ok = vec![false; units];
        for (&i, want) in checked.iter().zip(expected) {
            let got = served_fields(&replies[i].body).map(|(f, _)| f);
            fields_ok[i] = matches!((got, want), (Some(g), Ok(w)) if g == w);
        }
        let repeated_ok = |first: Option<usize>, body: &str| {
            first.is_some_and(|i| fields_ok[i]) && body_of(first) == Some(body)
        };
        let mut per_class: Vec<(Class, Vec<f64>)> =
            Class::ALL.iter().map(|&c| (c, Vec::new())).collect();
        for (i, (req, reply)) in reqs.iter().zip(&replies).enumerate() {
            section.attempted += 1;
            per_class[Class::ALL
                .iter()
                .position(|&c| c == req.class)
                .expect("listed")]
            .1
            .push(reply.ms);
            let body_ok = || match req.class {
                Class::Hot => repeated_ok(hot_first, &reply.body),
                Class::Dup => repeated_ok(dup_first, &reply.body),
                Class::Cold => fields_ok[i],
                Class::Analyze => reply.body == self.analyze_expected[req.seed as usize],
                Class::Oversized => true,
            };
            match classify(req.class, reply.status.as_ref().map(|s| *s), body_ok) {
                Ok(()) => {
                    // Each distinct unit once: the daemon runs its engine
                    // once, later identical requests are served from the
                    // store or coalesced.
                    if req.class == Class::Cold || Some(i) == hot_first || Some(i) == dup_first {
                        section.served_patterns += served_fields(&reply.body).map_or(0, |(_, t)| t);
                    }
                    section.digests.push(digest(&reply.body));
                }
                Err(why) => {
                    section.failed += 1;
                    if section.errors.len() < 8 {
                        section.errors.push(format!(
                            "request {i} ({}): {}",
                            req.class.name(),
                            describe(why)
                        ));
                    }
                }
            }
        }
        for (class, ms) in &per_class {
            let name = match class {
                Class::Hot => "serve.hot_p50_ms",
                Class::Cold => "serve.cold_p50_ms",
                Class::Dup => "serve.dup_p50_ms",
                Class::Analyze => "serve.analyze_p50_ms",
                Class::Oversized => "serve.rejected_p50_ms",
            };
            section.layer.push((name, median(ms)));
        }
        section.layer.extend(server_metrics(&metrics));
        let (hits, misses) = (self.store.hits(), self.store.misses());
        section.layer.push((
            "store.hit_ratio",
            if hits + misses == 0 {
                0.0
            } else {
                hits as f64 / (hits + misses) as f64
            },
        ));
        if let Some(t) = &self.traffic {
            section
                .layer
                .push(("store.load_calls", t.loads.load(Ordering::Relaxed) as f64));
            section
                .layer
                .push(("store.store_calls", t.stores.load(Ordering::Relaxed) as f64));
            section.layer.push((
                "store.bytes_written",
                t.bytes_written.load(Ordering::Relaxed) as f64,
            ));
        }
        let counts: Vec<String> = per_class
            .iter()
            .map(|(c, ms)| format!("{} {}", c.name(), ms.len()))
            .collect();
        section
            .notes
            .push(format!("request mix: {}", counts.join(", ")));
        Ok(())
    }
}

/// Send request `i` and time it.
fn request(req: &Request, client: &mut HttpClient, i: usize, log: Option<&Arc<SpanLog>>) -> Reply {
    let layer = match req.class {
        Class::Hot => "serve.client_hot",
        Class::Cold => "serve.client_cold",
        Class::Dup => "serve.client_dup",
        Class::Analyze => "serve.client_analyze",
        Class::Oversized => "serve.client_rejected",
    };
    let t0 = Instant::now();
    let resp = in_span(log, layer, i as u64, || {
        client.request("POST", req.path, Some(&req.body))
    });
    let ms = ms_since(t0);
    match resp {
        Ok(r) => Reply {
            status: Ok(r.status),
            body: r.body_text(),
            ms,
        },
        Err(e) => Reply {
            status: Err(e),
            body: String::new(),
            ms,
        },
    }
}

/// The fields of a served experiment body that an in-process run of the
/// same unit must reproduce.
fn expected_fields(options: &ExperimentOptions, seed: u64, body: &str) -> Result<String, String> {
    let unit = unit_of(body)?;
    let netlist = mini_soc(seed).map_err(|e| e.to_string())?;
    let c = run_soc_experiment_guarded(&netlist, options, &RunBudget::unlimited())
        .map_err(|e| e.to_string())?;
    let a = &c.result.analysis;
    Ok(format!(
        "ok|{}|{}|{}|{}",
        unit_key(&unit, options).hex(),
        c.result.t_mono,
        a.modular().total(),
        a.monolithic().total()
    ))
}

/// The same fields read from a served body, plus its `t_mono`.
fn served_fields(body: &str) -> Option<(String, u64)> {
    let doc = json::parse(body).ok()?;
    let num = |k: &str| doc.get(k).and_then(JsonValue::as_u64);
    let t_mono = num("t_mono")?;
    Some((
        format!(
            "{}|{}|{}|{}|{}",
            doc.get("status")?.as_str()?,
            doc.get("key")?.as_str()?,
            t_mono,
            num("tdv_modular")?,
            num("tdv_monolithic")?
        ),
        t_mono,
    ))
}

fn describe(why: Failure) -> String {
    match why {
        Failure::Shed => "shed with 503".into(),
        Failure::Timeout => "timed out".into(),
        Failure::Io => "I/O error".into(),
        Failure::UnexpectedStatus(s) => format!("unexpected status {s}"),
        Failure::WrongBody => "wrong body".into(),
    }
}

/// Server-side per-layer values from the scraped `/metrics` document.
fn server_metrics(doc: &JsonValue) -> Vec<(&'static str, f64)> {
    let counter = |c: Counter| {
        doc.get("counters")
            .and_then(|m| m.get(c.name()))
            .and_then(JsonValue::as_f64)
            .unwrap_or(0.0)
    };
    let phase_ms = |p: Phase| {
        doc.get("phases")
            .and_then(|m| m.get(p.name()))
            .and_then(|m| m.get("wall_ms"))
            .and_then(JsonValue::as_f64)
            .unwrap_or(0.0)
    };
    let experiments = counter(Counter::ServeLaneHeavy);
    let coalesced = counter(Counter::ServeCoalesceHits);
    vec![
        ("serve.request_ms", phase_ms(Phase::ServeRequest)),
        ("serve.wait_light_ms", phase_ms(Phase::ServeWaitLight)),
        ("serve.wait_heavy_ms", phase_ms(Phase::ServeWaitHeavy)),
        ("serve.batches", counter(Counter::ServeBatches)),
        ("serve.batched_units", counter(Counter::ServeBatchedUnits)),
        ("serve.coalesce_hits", coalesced),
        (
            "serve.coalesce_ratio",
            if experiments == 0.0 {
                0.0
            } else {
                coalesced / experiments
            },
        ),
        (
            "serve.keepalive_reuses",
            counter(Counter::ServeKeepAliveReuses),
        ),
        ("serve.shed", counter(Counter::ServeShed)),
    ]
}
