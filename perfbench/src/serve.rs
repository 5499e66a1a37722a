//! The request line → response line path: an `slpd`-equivalent TCP
//! server (memory + disk cache tiers, 2 workers, dedup on) driven
//! open-loop over 2 pipelined connections with seeded Poisson arrivals.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use slp::core::{CompileStats, SlpConfig, Strategy};
use slp::driver::json::Json;
use slp::driver::{
    serve_tcp, CompileCache, CompileRequest, Handler, QuotaConfig, ServeConfig, ServeSummary,
    TcpOptions, TcpServer, VerifyLevel,
};
use slp::prelude::MachineConfig;

use crate::gen::{cold_variant, suite_sources, Rng, Source};
use crate::stats::{mean, median, percentile};
use crate::trace::Tracer;
use crate::Tally;

/// The fixed offered load of the latency windows, requests per second.
pub const RATE: f64 = 600.0;
/// Length of one latency window, seconds.
pub const WINDOW_S: f64 = 2.0;
/// Length of one capacity probe, seconds.
const PROBE_S: f64 = 0.5;
/// The p99 latency limit of the capacity search, milliseconds.
pub const LIMIT_MS: f64 = 50.0;
/// Offered rate of the first capacity probe, requests per second.
const FIRST_PROBE_RATE: f64 = 2000.0;
/// The finest step of the capacity search, as a rate factor.
const MIN_STEP: f64 = 1.04;
/// Server worker threads (one per core of the host).
const WORKERS: usize = 2;
const CONNECTIONS: usize = 2;
/// The tenant the server meters to zero tokens.
const QUOTA_TENANT: &str = "hog";
/// Share of each class in the generated mix, per mille.
const WARM_PM: u64 = 800;
const COLD_PM: u64 = 150;
const MALFORMED_PM: u64 = 25;
/// Share of cold requests sent on both connections at once.
const TWIN_PER_4: u64 = 1;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    Warm,
    Cold,
    Malformed,
    Quota,
}

impl Class {
    pub const ALL: [Class; 4] = [Class::Warm, Class::Cold, Class::Malformed, Class::Quota];

    pub fn name(self) -> &'static str {
        match self {
            Class::Warm => "warm",
            Class::Cold => "cold",
            Class::Malformed => "malformed",
            Class::Quota => "quota",
        }
    }

    fn span(self) -> &'static str {
        match self {
            Class::Warm => "serve.handle.warm",
            Class::Cold => "serve.handle.cold",
            Class::Malformed => "serve.handle.malformed",
            Class::Quota => "serve.handle.quota",
        }
    }
}

/// What a correct compile response carries.
#[derive(Debug, Clone)]
pub struct Expect {
    fingerprint: String,
    stats: CompileStats,
}

struct WarmItem {
    name: String,
    source: String,
    layout: bool,
    expect: Expect,
}

pub struct ServeInputs {
    machine_name: &'static str,
    machine: MachineConfig,
    warm: Vec<WarmItem>,
    /// Suite kernels the cold variants are made from, with the stats of
    /// their `global` compile.
    bases: Vec<(Source, CompileStats)>,
}

fn request(machine: &MachineConfig, name: &str, source: &str, layout: bool) -> CompileRequest {
    let config = SlpConfig::for_machine(machine.clone(), Strategy::Holistic);
    CompileRequest {
        name: name.to_string(),
        source: source.to_string(),
        config: if layout { config.with_layout() } else { config },
        verify: VerifyLevel::Static,
    }
}

pub fn prepare(machine_name: &'static str, machine: &MachineConfig) -> Result<ServeInputs, String> {
    let mut warm = Vec::new();
    let mut bases = Vec::new();
    for src in suite_sources(1) {
        for layout in [false, true] {
            let out =
                slp::driver::compile_source(&request(machine, &src.name, &src.text, layout), None)
                    .map_err(|e| format!("set-up compile of {}: {e}", src.name))?;
            if !layout {
                bases.push((src.clone(), out.kernel.stats));
            }
            warm.push(WarmItem {
                name: src.name.clone(),
                source: src.text.clone(),
                layout,
                expect: Expect {
                    fingerprint: out.fingerprint.to_hex(),
                    stats: out.kernel.stats,
                },
            });
        }
    }
    Ok(ServeInputs {
        machine_name,
        machine: machine.clone(),
        warm,
        bases,
    })
}

/// One generated request.
#[derive(Debug, Clone)]
pub struct Planned {
    pub line: String,
    pub class: Class,
    pub id: u64,
    /// Whether the response must echo `id` (false for non-JSON lines,
    /// which are answered in the legacy shape).
    echo: bool,
    /// Scheduled send time, seconds after the window starts.
    pub at: f64,
    pub conn: usize,
    expect: Option<Expect>,
}

fn compile_line(
    inputs: &ServeInputs,
    id: u64,
    tenant: &str,
    name: &str,
    source: &str,
    layout: bool,
) -> String {
    Json::obj(vec![
        ("v", Json::num(1u64)),
        ("id", Json::num(id)),
        ("tenant", Json::str(tenant)),
        ("cmd", Json::str("compile")),
        ("name", Json::str(name)),
        ("source", Json::str(source)),
        ("machine", Json::str(inputs.machine_name)),
        ("layout", Json::Bool(layout)),
    ])
    .to_compact()
}

/// The warm set as request lines (used to pre-warm a server).
fn warm_lines(inputs: &ServeInputs) -> Vec<String> {
    inputs
        .warm
        .iter()
        .enumerate()
        .map(|(i, w)| compile_line(inputs, i as u64, "warmup", &w.name, &w.source, w.layout))
        .collect()
}

/// Seeded Poisson arrivals at `rate` for `duration` seconds. `stream`
/// separates the windows of one run.
pub fn plan(
    inputs: &ServeInputs,
    seed: u64,
    stream: u64,
    rate: f64,
    duration: f64,
) -> Vec<Planned> {
    let mut arrivals = Rng::new(seed, stream * 3);
    let mut classes = Rng::new(seed, stream * 3 + 1);
    let mut variants = Rng::new(seed, stream * 3 + 2);
    let mut out = Vec::new();
    let mut t = 0.0;
    let mut id = 0u64;
    loop {
        t += arrivals.exp_gap(rate);
        if t >= duration {
            break;
        }
        let roll = classes.below(1000);
        let conn = classes.below(CONNECTIONS as u64) as usize;
        id += 1;
        if roll < WARM_PM {
            let w = &inputs.warm[classes.below(inputs.warm.len() as u64) as usize];
            out.push(Planned {
                line: compile_line(inputs, id, "bench", &w.name, &w.source, w.layout),
                class: Class::Warm,
                id,
                echo: true,
                at: t,
                conn,
                expect: Some(w.expect.clone()),
            });
        } else if roll < WARM_PM + COLD_PM {
            let (base, stats) = &inputs.bases[variants.below(inputs.bases.len() as u64) as usize];
            let src = cold_variant(base, variants.next_u64());
            let expect = Expect {
                fingerprint: request(&inputs.machine, &src.name, &src.text, false)
                    .fingerprint()
                    .to_hex(),
                stats: *stats,
            };
            let twin = variants.below(4) < TWIN_PER_4;
            let conns: Vec<usize> = if twin {
                (0..CONNECTIONS).collect()
            } else {
                vec![conn]
            };
            for (k, c) in conns.into_iter().enumerate() {
                if k > 0 {
                    id += 1;
                }
                out.push(Planned {
                    line: compile_line(inputs, id, "bench", &src.name, &src.text, false),
                    class: Class::Cold,
                    id,
                    echo: true,
                    at: t,
                    conn: c,
                    expect: Some(expect.clone()),
                });
            }
        } else if roll < WARM_PM + COLD_PM + MALFORMED_PM {
            let (line, echo) = if classes.below(2) == 0 {
                ("{this is not json".to_string(), false)
            } else {
                let line = Json::obj(vec![
                    ("v", Json::num(1u64)),
                    ("id", Json::num(id)),
                    ("cmd", Json::str("frobnicate")),
                ])
                .to_compact();
                (line, true)
            };
            out.push(Planned {
                line,
                class: Class::Malformed,
                id,
                echo,
                at: t,
                conn,
                expect: None,
            });
        } else {
            let w = &inputs.warm[classes.below(inputs.warm.len() as u64) as usize];
            out.push(Planned {
                line: compile_line(inputs, id, QUOTA_TENANT, &w.name, &w.source, w.layout),
                class: Class::Quota,
                id,
                echo: true,
                at: t,
                conn,
                expect: None,
            });
        }
    }
    out
}

/// How a response measures up against its request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// The response the request class calls for.
    Right,
    /// A transient refusal (overload or drain): not wrong, but it
    /// misses any latency limit.
    Refused,
    /// Anything else: unparseable, wrong id, wrong code, wrong kernel.
    Wrong,
}

pub fn judge(p: &Planned, response: &str) -> Verdict {
    let Ok(doc) = Json::parse(response) else {
        return Verdict::Wrong;
    };
    if p.echo && doc.get("id").and_then(Json::u64) != Some(p.id) {
        return Verdict::Wrong;
    }
    let ok = doc.get("ok").and_then(Json::bool);
    let code = doc.get("code").and_then(Json::string).unwrap_or_default();
    if ok == Some(false) && (code == "S120" || code == "S122") {
        return Verdict::Refused;
    }
    let right = match p.class {
        Class::Warm | Class::Cold => {
            let e = p
                .expect
                .as_ref()
                .expect("compile classes carry an expectation");
            let n = |key: &str| doc.get(key).and_then(Json::u64);
            ok == Some(true)
                && doc.get("fingerprint").and_then(Json::string) == Some(e.fingerprint.as_str())
                && n("stmts") == Some(e.stats.stmts as u64)
                && n("superwords") == Some(e.stats.superwords as u64)
                && n("vectorized_stmts") == Some(e.stats.vectorized_stmts as u64)
                && n("verify_errors") == Some(0)
        }
        Class::Malformed if p.echo => ok == Some(false) && code == "S101",
        Class::Malformed => {
            ok == Some(false) && doc.get("kind").and_then(Json::string) == Some("request")
        }
        Class::Quota => ok == Some(false) && code == "S121",
    };
    if right {
        Verdict::Right
    } else {
        Verdict::Wrong
    }
}

fn server_config() -> ServeConfig {
    ServeConfig {
        quota_overrides: vec![(
            QUOTA_TENANT.to_string(),
            QuotaConfig {
                capacity: 0.0,
                refill_per_sec: 0.0,
            },
        )],
        ..ServeConfig::default()
    }
}

/// A handler over a fresh memory + disk cache in `dir`, with the warm
/// set already compiled into it.
fn warmed_handler(inputs: &ServeInputs, dir: &Path) -> Result<Arc<Handler>, String> {
    let _ = std::fs::remove_dir_all(dir);
    let cache = CompileCache::with_disk(slp::driver::DEFAULT_MEMORY_CAPACITY, dir);
    let handler = Arc::new(Handler::new(Arc::new(cache), server_config()));
    for line in warm_lines(inputs) {
        let response = handler.handle_line(&line);
        if response.json.get("ok").and_then(Json::bool) != Some(true) {
            return Err(format!(
                "warm-up compile failed: {}",
                response.json.to_compact()
            ));
        }
    }
    Ok(handler)
}

/// What one open-loop request observed.
#[derive(Debug, Clone, Default)]
pub struct Observed {
    /// Response time minus scheduled send time, seconds.
    pub latency_s: f64,
    /// How late the generator wrote the request, seconds.
    pub lag_s: f64,
    pub response: Option<String>,
}

/// Sends `plan` open-loop to `addr` (each connection's writer sleeps to
/// the scheduled time and never waits for responses) and collects every
/// response, index-aligned with `plan`.
pub fn open_loop(addr: SocketAddr, plan: &[Planned]) -> Vec<Observed> {
    let mut observed = vec![Observed::default(); plan.len()];
    let start = Instant::now() + Duration::from_millis(20);
    let due = |p: &Planned| start + Duration::from_secs_f64(p.at);
    let results: Vec<Vec<(usize, Observed)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CONNECTIONS)
            .map(|conn| {
                let mine: Vec<usize> = (0..plan.len()).filter(|&i| plan[i].conn == conn).collect();
                scope.spawn(move || {
                    let mut out: Vec<(usize, Observed)> =
                        mine.iter().map(|&i| (i, Observed::default())).collect();
                    let Ok(stream) = TcpStream::connect(addr) else {
                        return out;
                    };
                    let _ = stream.set_nodelay(true);
                    let _ = stream.set_read_timeout(Some(Duration::from_secs(60)));
                    let Ok(write_half) = stream.try_clone() else {
                        return out;
                    };
                    let writer = {
                        let mine = mine.clone();
                        scope.spawn(move || {
                            let mut w = write_half;
                            let mut lags = Vec::with_capacity(mine.len());
                            for &i in &mine {
                                let at = due(&plan[i]);
                                let now = Instant::now();
                                if now < at {
                                    std::thread::sleep(at - now);
                                }
                                lags.push(
                                    Instant::now().saturating_duration_since(at).as_secs_f64(),
                                );
                                let mut line = plan[i].line.clone();
                                line.push('\n');
                                if w.write_all(line.as_bytes()).is_err() {
                                    break;
                                }
                            }
                            lags
                        })
                    };
                    let mut reader = BufReader::new(&stream);
                    for (i, obs) in out.iter_mut() {
                        let mut line = String::new();
                        match reader.read_line(&mut line) {
                            Ok(n) if n > 0 => {
                                obs.latency_s = Instant::now()
                                    .saturating_duration_since(due(&plan[*i]))
                                    .as_secs_f64();
                                obs.response = Some(line.trim_end().to_string());
                            }
                            _ => break,
                        }
                    }
                    let _ = stream.shutdown(std::net::Shutdown::Both);
                    let lags = writer.join().unwrap_or_default();
                    for ((_, obs), lag) in out.iter_mut().zip(lags) {
                        obs.lag_s = lag;
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_default())
            .collect()
    });
    for (i, obs) in results.into_iter().flatten() {
        observed[i] = obs;
    }
    observed
}

/// One open-loop window against a fresh server.
#[derive(Debug, Default)]
pub struct Window {
    pub observed: Vec<Observed>,
    pub verdicts: Vec<Verdict>,
    pub summary: ServeSummary,
    pub hit_ratio: f64,
}

impl Window {
    pub fn latencies_ms(&self, plan: &[Planned], class: Option<Class>) -> Vec<f64> {
        plan.iter()
            .zip(&self.observed)
            .filter(|(p, o)| o.response.is_some() && class.is_none_or(|c| p.class == c))
            .map(|(_, o)| o.latency_s * 1e3)
            .collect()
    }

    pub fn count(&self, v: Verdict) -> u64 {
        self.verdicts.iter().filter(|&&x| x == v).count() as u64
    }

    /// Whether the offered load was sustained: nothing refused or
    /// wrong, overall p99 within [`LIMIT_MS`], and no growing backlog
    /// (the second half's median within twice the first half's plus
    /// 2 ms).
    pub fn sustained(&self, plan: &[Planned]) -> bool {
        let all = self.latencies_ms(plan, None);
        if all.is_empty() || self.count(Verdict::Right) as usize != plan.len() {
            return false;
        }
        let (first, last) = all.split_at(all.len() / 2);
        percentile(&all, 99.0) <= LIMIT_MS && median(last) <= 2.0 * median(first) + 2.0
    }
}

pub fn window(
    inputs: &ServeInputs,
    dir: &Path,
    plan: &[Planned],
    corrupt: bool,
) -> Result<Window, String> {
    let handler = warmed_handler(inputs, dir)?;
    let server: TcpServer = serve_tcp(
        "127.0.0.1:0",
        Arc::clone(&handler),
        TcpOptions {
            workers: WORKERS,
            ..TcpOptions::default()
        },
    )
    .map_err(|e| e.to_string())?;
    let mut observed = open_loop(server.local_addr(), plan);
    let hit_ratio = handler.cache().stats().hit_rate();
    let summary = server.shutdown();
    let _ = std::fs::remove_dir_all(dir);
    if corrupt {
        if let Some(o) = observed.iter_mut().find(|o| o.response.is_some()) {
            o.response = Some(r#"{"v":1,"id":0,"ok":true}"#.to_string());
        }
    }
    let verdicts = plan
        .iter()
        .zip(&observed)
        .map(|(p, o)| {
            o.response
                .as_deref()
                .map_or(Verdict::Wrong, |r| judge(p, r))
        })
        .collect();
    Ok(Window {
        observed,
        verdicts,
        summary,
        hit_ratio,
    })
}

/// The open-ended search for the highest rate the server sustains, one
/// fresh-server probe of [`PROBE_S`] seconds per [`Capacity::step`].
/// The offered rate moves by a factor of √2 from [`FIRST_PROBE_RATE`],
/// up after a sustained probe and down after a failed one, until the
/// outcome flips; that brackets the capacity. Bisection (in log rate)
/// then narrows the bracket down to [`MIN_STEP`], and from there the
/// search keeps tracking the edge for as long as the run lasts: a step up
/// after each sustained probe, a step down after each failed one. Three
/// moves in a row the same way square the step (up to √2), so a
/// bisection misled by one unlucky probe, or a host that speeds up or
/// slows down, is caught up with in a few probes; a reversal takes the
/// square root again. No probe offers more than about √2 times the
/// capacity. The result is the highest rate sustained in the run: the
/// host's co-tenants only ever lower the capacity, so, as with the VM's
/// best times, the best probe reads the quiet periods.
#[derive(Debug)]
pub struct Capacity {
    /// Offered rate of the next probe.
    rate: f64,
    /// Rate factor of the moves.
    step: f64,
    /// Whether the outcome has flipped once (bisection has begun).
    bracketed: bool,
    /// Whether bisection has reached [`MIN_STEP`].
    tracking: bool,
    last: Option<bool>,
    /// Probes in a row with the same outcome.
    run: usize,
    best_sustained: Option<f64>,
    pub probes: usize,
    pub attempted: u64,
}

impl Capacity {
    pub fn new() -> Capacity {
        Capacity {
            rate: FIRST_PROBE_RATE,
            step: std::f64::consts::SQRT_2,
            bracketed: false,
            tracking: false,
            last: None,
            run: 0,
            best_sustained: None,
            probes: 0,
            attempted: 0,
        }
    }

    /// The result: the highest rate sustained so far (half the first
    /// rate if none was).
    pub fn rate(&self) -> f64 {
        self.best_sustained.unwrap_or(FIRST_PROBE_RATE / 2.0)
    }

    /// Runs the next probe; returns the number of wrong responses it saw
    /// (refusals under overload are not wrong).
    pub fn step(&mut self, inputs: &ServeInputs, dir: &Path, seed: u64) -> Result<u64, String> {
        let rate = self.rate;
        self.probes += 1;
        // Streams from 1000 on: the latency windows count up from 0.
        let plan = plan(inputs, seed, 1000 + self.probes as u64, rate, PROBE_S);
        let w = window(inputs, dir, &plan, false)?;
        self.attempted += plan.len() as u64;
        self.record(w.sustained(&plan));
        Ok(w.count(Verdict::Wrong))
    }

    /// Moves the search on after a probe at the current rate.
    fn record(&mut self, ok: bool) {
        let rate = self.rate;
        if ok {
            self.best_sustained = Some(self.best_sustained.map_or(rate, |b| b.max(rate)));
        }
        let flip = self.last.is_some_and(|last| last != ok);
        self.run = if flip { 1 } else { self.run + 1 };
        self.last = Some(ok);
        self.bracketed |= flip;
        let s = self.step;
        self.step = if !self.bracketed {
            s
        } else if !self.tracking || flip {
            // Bisection halves the bracket with every probe.
            s.sqrt().max(MIN_STEP)
        } else if self.run >= 3 {
            (s * s).min(std::f64::consts::SQRT_2)
        } else {
            s
        };
        self.tracking |= self.bracketed && self.step <= MIN_STEP;
        self.rate = if ok {
            rate * self.step
        } else {
            rate / self.step
        };
    }
}

// ---------------------------------------------------------------------
// Traced serve: handler replay, idle round trips, and one window.

/// Replays `plan` in order through a fresh warmed handler, one span per
/// `handle_line` call. Returns (attempted, wrong).
pub fn replay(
    tr: &Tracer,
    inputs: &ServeInputs,
    dir: &Path,
    plan: &[Planned],
    tally: &mut Tally,
) -> Result<(u64, u64), String> {
    let handler = tr.span("serve.warmup", 0, || warmed_handler(inputs, dir))?;
    let mut wrong = 0;
    for p in plan {
        let response = tr.span(p.class.span(), p.id, || handler.handle_line(&p.line));
        tally.add(&format!("serve.n.{}", p.class.name()), 1.0);
        if judge(p, &response.json.to_compact()) != Verdict::Right {
            wrong += 1;
        }
    }
    let _ = std::fs::remove_dir_all(dir);
    Ok((plan.len() as u64, wrong))
}

/// The wire share of a warm request, seconds: the mean closed-loop round
/// trip of each warm line over one connection to an otherwise idle
/// server, minus the mean in-process `handle_line` of the same line on
/// the same handler, interleaved so both see the same warm caches.
pub fn wire_seconds(inputs: &ServeInputs, dir: &Path) -> Result<f64, String> {
    let handler = warmed_handler(inputs, dir)?;
    let server = serve_tcp(
        "127.0.0.1:0",
        Arc::clone(&handler),
        TcpOptions {
            workers: WORKERS,
            ..TcpOptions::default()
        },
    )
    .map_err(|e| e.to_string())?;
    let diffs = (|| -> std::io::Result<Vec<f64>> {
        let stream = TcpStream::connect(server.local_addr())?;
        stream.set_nodelay(true)?;
        let mut reader = BufReader::new(stream.try_clone()?);
        let mut writer = &stream;
        let mut diffs = Vec::new();
        for _ in 0..4 {
            for line in warm_lines(inputs) {
                let start = Instant::now();
                std::hint::black_box(handler.handle_line(&line));
                let handle = start.elapsed().as_secs_f64();
                let start = Instant::now();
                writeln!(writer, "{line}")?;
                let mut response = String::new();
                reader.read_line(&mut response)?;
                diffs.push(start.elapsed().as_secs_f64() - handle);
            }
        }
        Ok(diffs)
    })()
    .map_err(|e| e.to_string());
    server.shutdown();
    let _ = std::fs::remove_dir_all(dir);
    Ok(mean(&diffs?).max(0.0))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Drives the search against a server that sustains every rate up
    /// to `capacity`.
    fn search(capacity: f64, probes: usize) -> Capacity {
        let mut c = Capacity::new();
        for _ in 0..probes {
            let ok = c.rate <= capacity;
            c.record(ok);
        }
        c
    }

    #[test]
    fn the_capacity_search_has_no_ceiling() {
        for capacity in [300.0, 3400.0, 50_000.0] {
            let c = search(capacity, 40);
            assert!(
                (c.rate() / capacity - 1.0).abs() < 0.05,
                "{capacity}: {}",
                c.rate()
            );
        }
    }

    #[test]
    fn the_search_catches_up_with_a_misleading_probe() {
        let mut c = Capacity::new();
        let mut misled = false;
        for _ in 0..40 {
            // One probe fails well below the capacity.
            let ok = c.rate <= 3000.0 && (misled || c.rate < 2500.0);
            misled |= c.rate >= 2500.0 && c.rate <= 3000.0;
            c.record(ok);
        }
        assert!((c.rate() / 3000.0 - 1.0).abs() < 0.05, "{}", c.rate());
    }

    #[test]
    fn few_probes_give_the_highest_sustained_rate() {
        let close = |a: f64, b: f64| (a / b - 1.0).abs() < 1e-9;
        assert!(close(
            search(3400.0, 2).rate(),
            2000.0 * std::f64::consts::SQRT_2
        ));
        assert!(close(search(10.0, 1).rate(), FIRST_PROBE_RATE / 2.0));
    }
}
