//! `hot-simulate`: traffic from one generator thread over two
//! connections to a child `smith85 serve` process running with its
//! default workers and queue, and no journal.
//!
//! * The workload sends single-config `simulate` requests of 2,000
//!   references over eight profiles (a quarter of them family profiles)
//!   with varied size and ways to one server whose pool set-up warmed.
//!   It measures the serving path itself: event loop, queue, protocol,
//!   exec, and pool reads; it bypasses generation, the one-pass engine,
//!   the store and the router.
//! * Its traced run ends with a routed-warm pass for the router and
//!   store layers: a mix of `simulate` and paper-grid `sweep` requests
//!   over 252 keys sent to a router in front of two shards, whose
//!   stores set-up filled with every key. routed-warm is not a workload
//!   of its own: its latency was too unsteady to gate (`README.md`).
//!
//! A run alternates open-loop phases at a fixed reference rate (latency
//! is timed from each request's scheduled send) with closed-loop
//! capacity phases that keep a fixed window in flight per connection,
//! and takes its figures from the windows with the least host steal.

use crate::fleet::Server;
use crate::host::{self, CpuTimes, SetUps};
use crate::load::{self, Pace, Phase};
use crate::spans::Recorder;
use crate::stats::{self, Dist, CALM_STEAL, MAX_STRETCH, WINDOW_S};
use crate::{mix, shuffle, Args, Outcome};
use smith85_cachesim::{CacheConfig, Mapping, Replacement};
use smith85_core::experiments::resolve_named_workload;
use smith85_core::SimSession;
use smith85_obs::RegistrySnapshot;
use smith85_serve::exec;
use smith85_serve::protocol::{CacheSpec, ErrorCode, Request, Response, SimulateSpec, SweepSpec};
use smith85_store::Store;
use std::fs;
use std::path::Path;
use std::time::Duration;

/// Connections per generator: the host's logical CPUs in the reference
/// set-up, all driven from one thread.
const CONNS: usize = 2;

/// Set-ups per untraced run; `setup_s` is the median of the calmer half
/// of them by host steal. A set-up takes tens of milliseconds, mostly
/// process start-up, so several take little time and steady the median.
const SETUPS: usize = 9;

/// Share of `--seconds` given to open-loop phases; capacity phases get
/// the rest.
const OPEN_SHARE: f64 = 0.6;

/// Open-loop and capacity phases alternate this many times, so that a
/// burst of host CPU steal hits a few windows of each kind rather than
/// all of one. A run whose calmest windows still saw steal goes on for
/// up to `MAX_STRETCH` times as many cycles.
const CYCLES: usize = 4;

/// Share of a run's nominal windows, the ones with the least host CPU
/// steal, that the timed figures come from (during a burst of steal,
/// only the steal-free ones, down to half as many: `calm_windows`). A
/// single tick of steal (10 ms of one CPU) in a 0.1 s window delays the
/// requests behind it by more than a p90, so the figures keep to the
/// calmest quarter, which is steal-free more often than the calmest
/// half.
const CALM_WINDOWS: f64 = 0.25;

/// How long after the last send a missing reply counts as a timeout.
const GRACE: Duration = Duration::from_secs(10);

/// A run whose generator sent any request later than this after its
/// scheduled time is flagged invalid: the offered load was not the one
/// the benchmark promises. The largest lateness seen on the reference
/// host, at 24% CPU steal, was 25 ms.
const LATE_BOUND_MS: f64 = 100.0;

/// Requests each connection keeps in flight in a capacity phase: enough
/// to keep both workers busy, far below the default queue bound.
const IN_FLIGHT: usize = 4;

/// Shuffled passes over the distinct requests in one request sequence;
/// phases that need more requests cycle through it.
const ROUNDS: u64 = 40;

/// hot-simulate's profiles: six CPU traces and two family profiles (a
/// quarter of the mix), whose names resolve about ten times slower.
const HOT_PROFILES: [&str; 8] = [
    "VCCOM",
    "ZGREP",
    "MVS1",
    "FGO1",
    "LISPCOMP",
    "PL0",
    "S-OLTP",
    "N-GATEWAY",
];
/// routed-warm's profiles: eight CPU traces and two of each family.
const ROUTED_PROFILES: [&str; 12] = [
    "VCCOM",
    "ZGREP",
    "MVS1",
    "FGO1",
    "LISPCOMP",
    "PL0",
    "CGO1",
    "VSPICE",
    "S-OLTP",
    "S-KVSTORE",
    "N-LAN",
    "N-GATEWAY",
];
/// Cache sizes and associativities (`None` is fully associative) each
/// profile's `simulate` keys cross.
const SIZES: [usize; 4] = [1_024, 4_096, 16_384, 65_536];
const WAYS: [Option<usize>; 4] = [Some(1), Some(2), Some(4), None];

/// Which traffic a plan sends.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    /// One server, warm pool, `simulate` only: the workload.
    HotSimulate,
    /// A router over two warm store-backed shards: the traced pass.
    RoutedWarm,
}

impl Kind {
    fn name(self) -> &'static str {
        match self {
            Kind::HotSimulate => "hot-simulate",
            Kind::RoutedWarm => "routed-warm",
        }
    }

    /// Open-loop reference rate over both connections, requests/s. It is
    /// a small share of what the servers can answer (each run prints the
    /// share against the capacity it measured), so the open-loop
    /// latencies are the cost of one request on the serving path rather
    /// than queueing near saturation; `capacity_rps` measures
    /// saturation. `README.md` records the measured shares.
    fn rate(self) -> f64 {
        match self {
            Kind::HotSimulate => 800.0,
            Kind::RoutedWarm => 400.0,
        }
    }

    /// The distinct requests of the workload. The seed picks every
    /// generator seed; the profiles, sizes and lengths are fixed.
    fn requests(self, seed: u64) -> Vec<Request> {
        let (profiles, len): (&[&str], usize) = match self {
            Kind::HotSimulate => (&HOT_PROFILES, 2_000),
            Kind::RoutedWarm => (&ROUTED_PROFILES, 5_000),
        };
        let mut requests = Vec::new();
        for (p, name) in profiles.iter().enumerate() {
            let profile_seed = mix(seed, 4, p as u64);
            for size in SIZES {
                for ways in WAYS {
                    requests.push(Request::Simulate(SimulateSpec {
                        workload: name.to_string(),
                        len,
                        seed: Some(profile_seed),
                        cache: CacheSpec {
                            size,
                            line: 16,
                            ways,
                            purge: None,
                        },
                        policy: None,
                        deadline_ms: None,
                    }));
                }
            }
        }
        if self == Kind::RoutedWarm {
            for (p, name) in profiles.iter().enumerate() {
                for variant in 0..5 {
                    requests.push(Request::Sweep(SweepSpec {
                        workload: name.to_string(),
                        len: 20_000,
                        seed: Some(mix(seed, 5, (p * 5 + variant) as u64)),
                        sizes: Vec::new(),
                        ways: vec![1, 2, 4, 8],
                        line: 16,
                        policy: None,
                        deadline_ms: None,
                    }));
                }
            }
        }
        requests
    }
}

/// `rounds` seed-shuffled passes over `0..distinct`, back to back.
fn sequence(seed: u64, distinct: usize, rounds: u64) -> Vec<usize> {
    let mut order = Vec::with_capacity(distinct * rounds as usize);
    for round in 0..rounds {
        let mut pass: Vec<usize> = (0..distinct).collect();
        shuffle(&mut pass, seed, 100 + round);
        order.extend(pass);
    }
    order
}

/// A response with its per-request fields (timings, trace id) cleared
/// and re-encoded, as `serve_load` compares them; the error code for a
/// typed error.
fn normalized(response: Response) -> Result<String, ErrorCode> {
    match response {
        Response::Simulate(mut r) => {
            r.queue_ms = 0;
            r.exec_ms = 0;
            r.trace_id.clear();
            Ok(Response::Simulate(r).encode())
        }
        Response::Sweep(mut r) => {
            r.queue_ms = 0;
            r.exec_ms = 0;
            r.trace_id.clear();
            Ok(Response::Sweep(r).encode())
        }
        Response::Error(body) => Err(body.code),
        _ => Err(ErrorCode::Internal),
    }
}

/// Failure accounting over the timed phases.
#[derive(Debug, Default, Clone, Copy)]
struct Tally {
    attempted: u64,
    errors: u64,
    overloaded: u64,
    timeouts: u64,
    wrong: u64,
}

impl Tally {
    fn failed(self) -> u64 {
        self.errors + self.overloaded + self.timeouts + self.wrong
    }

    /// Scores one reply against its reference answer.
    fn score(&mut self, reply: Option<&str>, reference: &str) -> bool {
        self.attempted += 1;
        let Some(line) = reply else {
            self.timeouts += 1;
            return false;
        };
        match Response::decode(line)
            .map_err(|_| ErrorCode::Internal)
            .and_then(normalized)
        {
            Ok(answer) if answer == reference => true,
            Ok(_) => {
                self.wrong += 1;
                false
            }
            Err(ErrorCode::Overloaded) => {
                self.overloaded += 1;
                false
            }
            Err(_) => {
                self.errors += 1;
                false
            }
        }
    }

    /// Checks every exchange of a phase; returns per-request latencies
    /// in ms, with a failed request as infinitely late (it misses any
    /// latency limit).
    fn check(&mut self, phase: &Phase, order: &[usize], reference: &[String]) -> Vec<f64> {
        phase
            .exchanges
            .iter()
            .map(|e| {
                let key = order[e.id % order.len()];
                if self.score(e.reply.as_deref(), &reference[key]) {
                    e.latency_ms().unwrap_or(f64::INFINITY)
                } else {
                    f64::INFINITY
                }
            })
            .collect()
    }
}

/// The servers of one set-up.
struct Fleet {
    /// Where the generator sends: the server, or the router.
    entry: Server,
    /// Backend shards (routed-warm only).
    shards: Vec<Server>,
}

impl Fleet {
    fn servers(&self) -> impl Iterator<Item = &Server> {
        std::iter::once(&self.entry).chain(&self.shards)
    }

    /// Servers that execute jobs (not the router).
    fn executors(&self) -> Vec<&Server> {
        if self.shards.is_empty() {
            vec![&self.entry]
        } else {
            self.shards.iter().collect()
        }
    }

    fn stop(self) -> Result<(), String> {
        let Fleet { entry, shards } = self;
        entry
            .stop()
            .map_err(|e| format!("stopping the entry server: {e}"))?;
        for shard in shards {
            shard.stop().map_err(|e| format!("stopping shard: {e}"))?;
        }
        Ok(())
    }
}

/// Registry snapshots of every server at one instant: the entry server
/// (for a router, its federated view, whose unlabelled series sum the
/// router and its shards) and each executor.
struct Snapshot {
    entry: RegistrySnapshot,
    executors: Vec<RegistrySnapshot>,
}

impl Snapshot {
    fn take(fleet: &Fleet) -> Result<Snapshot, String> {
        let read = |s: &Server| s.metrics().map_err(|e| format!("metrics: {e}"));
        Ok(Snapshot {
            entry: read(&fleet.entry)?,
            executors: fleet
                .executors()
                .into_iter()
                .map(read)
                .collect::<Result<_, _>>()?,
        })
    }

    /// How much counter `name` grew since `earlier`, summed over the
    /// executors.
    fn executor_sum(&self, earlier: &Snapshot, name: &str) -> u64 {
        earlier
            .executors
            .iter()
            .zip(&self.executors)
            .map(|(before, after)| stats::counter_delta(before, after, name))
            .sum()
    }

    /// Observations of executor histogram `name` since `earlier`.
    fn executor_count(&self, earlier: &Snapshot, name: &str) -> Vec<u64> {
        earlier
            .executors
            .iter()
            .zip(&self.executors)
            .map(|(before, after)| stats::histogram_delta(before, after, name).count)
            .collect()
    }
}

/// Sends every request once on one connection and returns the answers.
fn fill(server: &Server, requests: &[Request]) -> Result<Vec<Response>, String> {
    let mut client = server.client().map_err(|e| format!("connect: {e}"))?;
    requests
        .iter()
        .map(|r| {
            client
                .call_raw(r)
                .map_err(|e| format!("set-up request: {e}"))
        })
        .collect()
}

/// Starts the servers and warms them, once: the pool (hot-simulate) or
/// both shards' stores with every key (routed-warm). Returns the fleet
/// and each executor's answers during its warm-up.
fn set_up(plan: &Plan, round: u64) -> Result<(Fleet, Vec<Vec<Response>>), String> {
    let (dir, requests) = (plan.dir, &plan.requests);
    let spawn = |name: String, extra: Vec<String>| {
        Server::spawn(&plan.args.smith85, &name, &extra, dir).map_err(|e| format!("{name}: {e}"))
    };
    match plan.kind {
        Kind::HotSimulate => {
            let server = spawn(format!("server-{round}"), Vec::new())?;
            let answers = fill(&server, requests)?;
            let fleet = Fleet {
                entry: server,
                shards: Vec::new(),
            };
            Ok((fleet, vec![answers]))
        }
        Kind::RoutedWarm => {
            let store = |shard: &str| {
                let path = dir.join(format!("store-{shard}-{round}"));
                vec!["--store".to_string(), path.display().to_string()]
            };
            let a = spawn(format!("shard-a-{round}"), store("a"))?;
            let b = spawn(format!("shard-b-{round}"), store("b"))?;
            let router = spawn(
                format!("router-{round}"),
                vec!["--router".to_string(), format!("{},{}", a.addr, b.addr)],
            )?;
            let (from_a, from_b) = std::thread::scope(|scope| {
                let other = scope.spawn(|| fill(&b, requests));
                (fill(&a, requests), other.join())
            });
            let from_b = from_b.map_err(|_| "the set-up thread panicked".to_string())??;
            let fleet = Fleet {
                entry: router,
                shards: vec![a, b],
            };
            Ok((fleet, vec![from_a?, from_b]))
        }
    }
}

/// Runs a `simulate` or `sweep` request in process, as a worker does.
fn execute(session: &SimSession, request: &Request) -> Result<Response, String> {
    match request {
        Request::Simulate(spec) => exec::run_simulate(session, spec).map(Response::Simulate),
        Request::Sweep(spec) => exec::run_sweep(session, spec).map(Response::Sweep),
        other => return Err(format!("not a job request: {}", other.encode())),
    }
    .map_err(|e| e.to_string())
}

/// Reference answers for hot-simulate: `exec::run_simulate` in process.
fn in_process_answers(requests: &[Request]) -> Result<Vec<String>, String> {
    let session = SimSession::builder()
        .build()
        .map_err(|e| format!("session: {e}"))?;
    requests
        .iter()
        .map(|request| {
            execute(&session, request).and_then(|r| normalized(r).map_err(|c| c.to_string()))
        })
        .collect()
}

/// Everything one run sends and expects.
struct Plan<'a> {
    args: &'a Args,
    kind: Kind,
    dir: &'a Path,
    /// The distinct requests.
    requests: Vec<Request>,
    /// Send order: indices into `requests`.
    order: Vec<usize>,
    /// The request lines in send order.
    sent: Vec<String>,
}

impl Plan<'_> {
    /// Length of one open-loop phase.
    fn open_secs(&self) -> f64 {
        self.args.seconds as f64 * OPEN_SHARE / CYCLES as f64
    }

    /// Length of one capacity phase.
    fn closed_secs(&self) -> f64 {
        self.args.seconds as f64 * (1.0 - OPEN_SHARE) / CYCLES as f64
    }

    /// How many open-loop windows the latency figures come from: the
    /// calmest `CALM_WINDOWS` of the nominal `CYCLES` phases' windows.
    fn open_keep(&self) -> usize {
        let nominal = CYCLES * (self.open_secs() / WINDOW_S).ceil() as usize;
        stats::calm_count(nominal, CALM_WINDOWS)
    }

    /// How many capacity windows the capacity figures come from.
    fn closed_keep(&self) -> usize {
        let nominal = CYCLES * (self.closed_secs() / WINDOW_S).floor() as usize;
        stats::calm_count(nominal, CALM_WINDOWS)
    }

    fn drive(
        &self,
        addr: &str,
        pace: Pace,
        recorder: Option<&mut Recorder>,
    ) -> Result<Phase, String> {
        load::drive(addr, CONNS, &self.sent, pace, GRACE, recorder)
            .map_err(|e| format!("load on {addr}: {e}"))
    }

    /// An open-loop phase `secs` long at the workload's reference rate.
    fn open(
        &self,
        addr: &str,
        secs: f64,
        recorder: Option<&mut Recorder>,
    ) -> Result<Phase, String> {
        let pace = Pace::Open {
            rate: self.kind.rate(),
            duration: Duration::from_secs_f64(secs),
        };
        self.drive(addr, pace, recorder)
    }

    /// One closed-loop capacity phase.
    fn closed(&self, addr: &str) -> Result<Phase, String> {
        let pace = Pace::Closed {
            window: IN_FLIGHT,
            duration: Duration::from_secs_f64(self.closed_secs()),
        };
        self.drive(addr, pace, None)
    }

    fn request_of(&self, id: usize) -> &Request {
        &self.requests[self.order[id % self.order.len()]]
    }
}

/// Latency figures of open-loop phases, from each request's latency (a
/// failure counts as infinitely late): the whole distribution, and the
/// p50 and p90 of the requests due in the calmest windows.
struct Latency {
    whole: Dist,
    p50: f64,
    p90: f64,
    windows: usize,
    steal: f64,
}

impl Latency {
    /// From the `keep` calmest windows of `phases`.
    fn of(phases: &[Phase], latencies: &[Vec<f64>], keep: usize) -> Result<Latency, String> {
        let mut windows = Vec::new();
        for (phase, latencies) in phases.iter().zip(latencies) {
            let samples: Vec<(f64, f64)> = phase
                .exchanges
                .iter()
                .zip(latencies)
                .map(|(e, &ms)| (e.due.as_secs_f64(), ms))
                .collect();
            let mut split = stats::windows(&samples, WINDOW_S);
            split.resize_with(window_count(phase), Vec::new);
            windows.extend(split);
        }
        let steal = window_steal(phases)?;
        let whole = Dist::of(&latencies.concat()).ok_or("the open loop sent nothing")?;
        let keep = stats::calm_windows(&steal, keep);
        let calm = Dist::of(&stats::pooled(&windows, &keep)).ok_or("no calm samples")?;
        Ok(Latency {
            whole,
            p50: calm.p50,
            p90: calm.p90.ok_or("too few calm samples for a p90")?,
            windows: keep.len(),
            steal: stats::kept_steal(&steal, &keep),
        })
    }

    fn render(&self) -> String {
        format!(
            "requests due in the {} calmest {WINDOW_S} s windows (steal {:.4}): p50 {:.4} ms, \
             p90 {:.4} ms; all requests {}",
            self.windows,
            self.steal,
            self.p50,
            self.p90,
            self.whole.render("ms")
        )
    }
}

/// The windows a phase's figures use: every window holding a due time
/// of an open loop, the whole windows of a capacity phase.
fn window_count(phase: &Phase) -> usize {
    let windows = phase.pace.duration().as_secs_f64() / WINDOW_S;
    match phase.pace {
        Pace::Open { .. } => windows.ceil() as usize,
        Pace::Closed { .. } => windows.floor() as usize,
    }
}

/// The host's steal share in each window of each phase, in order.
fn window_steal(phases: &[Phase]) -> Result<Vec<f64>, String> {
    let mut steal = Vec::new();
    for phase in phases {
        let shares = host::window_steal(&phase.cpu_marks, WINDOW_S);
        let marked = shares
            .get(..window_count(phase))
            .ok_or("a phase ended before its windows were marked")?;
        steal.extend_from_slice(marked);
    }
    Ok(steal)
}

/// Whether the `keep` calmest windows of `phases` saw little steal.
fn calm_enough(phases: &[Phase], keep: usize) -> Result<bool, String> {
    let steal = window_steal(phases)?;
    Ok(stats::kept_steal(&steal, &stats::calm_windows(&steal, keep)) <= CALM_STEAL)
}

/// Capacity figures of closed-loop phases: the medians, over the
/// calmest whole windows, of answers and of references answered per
/// second.
struct Capacity {
    answered: usize,
    rps: f64,
    refs_per_s: f64,
    windows: usize,
    steal: f64,
}

impl Capacity {
    fn of(plan: &Plan, phases: &[Phase], answered_ok: &[Vec<bool>]) -> Result<Capacity, String> {
        let span = plan.closed_secs();
        let (mut rps, mut refs, mut answered) = (Vec::new(), Vec::new(), 0);
        for (phase, ok) in phases.iter().zip(answered_ok) {
            let events: Vec<(f64, f64)> = phase
                .exchanges
                .iter()
                .zip(ok)
                .filter(|(_, ok)| **ok)
                .filter_map(|(e, _)| {
                    let len = request_len(plan.request_of(e.id)) as f64;
                    e.done.map(|d| (d.as_secs_f64(), len))
                })
                .filter(|&(t, _)| t < span)
                .collect();
            answered += events.len();
            let ones: Vec<(f64, f64)> = events.iter().map(|&(t, _)| (t, 1.0)).collect();
            rps.extend(stats::window_rates(&ones, span));
            refs.extend(stats::window_rates(&events, span));
        }
        let steal = window_steal(phases)?;
        let keep = stats::calm_windows(&steal, plan.closed_keep());
        Ok(Capacity {
            answered,
            rps: stats::median_of(&rps, &keep),
            refs_per_s: stats::median_of(&refs, &keep),
            windows: keep.len(),
            steal: stats::kept_steal(&steal, &keep),
        })
    }
}

/// Per-layer metrics of the router and store layers, which
/// hot-simulate's traced run takes from its routed-warm pass.
const ROUTED_LAYERS: [&str; 10] = [
    "exec.store_hit_us.simulate",
    "exec.store_hit_us.sweep",
    "store.put_us",
    "store.hit_ratio",
    "router.hop_us",
    "router.shard_share_max",
    "router.hedged",
    "router.shard_overloads",
    "protocol.encode_us.sweep",
    "protocol.reply_bytes.sweep",
];

/// Runs the workload.
///
/// # Errors
///
/// Server start-up, connection or set-up failures.
pub fn run(args: &Args) -> Result<Outcome, String> {
    let mut out = with_plan(args, Kind::HotSimulate, run_hot)?;
    if args.trace {
        let routed = with_plan(args, Kind::RoutedWarm, probe_routed)?;
        for name in ROUTED_LAYERS {
            out.set(name, routed.metrics.get(name).copied().unwrap_or_default());
        }
        out.attempted += routed.attempted;
        out.failed += routed.failed;
        let pass = |line: String| format!("routed-warm pass: {line}");
        out.invalid.extend(routed.invalid.into_iter().map(pass));
        out.notes.extend(routed.notes.into_iter().map(pass));
    }
    Ok(out)
}

/// Builds the run's plan in a fresh directory under the workdir, runs
/// `f` on it, and removes the directory unless `f` failed.
fn with_plan(
    args: &Args,
    kind: Kind,
    f: impl FnOnce(&Plan) -> Result<Outcome, String>,
) -> Result<Outcome, String> {
    let dir = args.workdir.join(format!(
        "{}-{}-{}",
        kind.name(),
        args.seed,
        std::process::id()
    ));
    fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let requests = kind.requests(args.seed);
    let order = sequence(args.seed, requests.len(), ROUNDS);
    let sent = order.iter().map(|&i| requests[i].encode()).collect();
    let plan = Plan {
        args,
        kind,
        dir: &dir,
        requests,
        order,
        sent,
    };
    let outcome = f(&plan);
    if outcome.is_ok() {
        let _ = fs::remove_dir_all(&dir);
    }
    outcome
}

/// Sets the fleet up once, timed into `setups`, and returns it with its
/// normalized warm-up answers, which every later answer must match.
/// Both shards' cold answers must agree (routed-warm), and the answers
/// must equal `expected` when it is given (hot-simulate: the library's).
fn start(
    plan: &Plan,
    setups: &mut SetUps,
    expected: Option<&[String]>,
) -> Result<(Fleet, Vec<String>), String> {
    let round = setups.count() as u64;
    let (fleet, answers) = setups.time(|| set_up(plan, round))?;
    let mut warm = answers.into_iter().map(|answers| {
        answers
            .into_iter()
            .map(|r| normalized(r).map_err(|c| format!("a set-up request failed: {c}")))
            .collect::<Result<Vec<String>, String>>()
    });
    let reference = warm.next().expect("at least one executor")?;
    for other in warm {
        if other? != reference {
            return Err("the two shards' cold answers differ".to_string());
        }
    }
    if expected.is_some_and(|e| e != reference) {
        return Err("served warm-up answers differ from exec::run_simulate".to_string());
    }
    Ok((fleet, reference))
}

/// The set-ups before cycle `cycle` of an untraced run. The measured
/// fleet's set-up comes first; `SETUPS - 1` more, each checked and
/// stopped again, are spread over the first `CYCLES` cycles.
fn spare_set_ups(
    plan: &Plan,
    setups: &mut SetUps,
    expected: &[String],
    cycle: usize,
) -> Result<(), String> {
    let due = (1 + (SETUPS - 1) * (cycle + 1) / CYCLES).min(SETUPS);
    while setups.count() < due {
        let (fleet, _) = start(plan, setups, Some(expected))?;
        fleet.stop()?;
    }
    Ok(())
}

/// Routed answers must also match a direct call to each shard.
fn check_shards_directly(
    plan: &Plan,
    fleet: &Fleet,
    reference: &[String],
    tally: &mut Tally,
) -> Result<(), String> {
    for shard in &fleet.shards {
        for (key, answer) in fill(shard, &plan.requests)?.into_iter().enumerate() {
            tally.score(Some(&answer.encode()), &reference[key]);
        }
    }
    Ok(())
}

/// The routed-warm pass of hot-simulate's traced run: one set-up, one
/// capacity phase, which gives the share of capacity the open-loop rate
/// offers, then the traced passes.
fn probe_routed(plan: &Plan) -> Result<Outcome, String> {
    let mut setups = SetUps::default();
    let (fleet, reference) = start(plan, &mut setups, None)?;
    let mut tally = Tally::default();
    let mut out = Outcome::default();
    let closed = plan.closed(&fleet.entry.addr)?;
    let ok: Vec<bool> = tally
        .check(&closed, &plan.order, &reference)
        .iter()
        .map(|ms| ms.is_finite())
        .collect();
    let capacity = Capacity::of(plan, std::slice::from_ref(&closed), &[ok])?;
    out.note(format!(
        "{}; one capacity phase of {:.1} s: {} answers, median {:.1} req/s, so the open \
         loop's {:.0} req/s offers {:.1}% of capacity",
        setups.render(),
        plan.closed_secs(),
        capacity.answered,
        capacity.rps,
        plan.kind.rate(),
        plan.kind.rate() / capacity.rps * 100.0,
    ));
    traced(plan, &fleet, &reference, &mut tally, &mut out, None)?;
    check_shards_directly(plan, &fleet, &reference, &mut tally)?;
    out.attempted = tally.attempted;
    out.failed = tally.failed();
    fleet.stop()?;
    Ok(out)
}

/// hot-simulate's set-ups and timed phases; a traced run then goes on
/// to the traced passes.
fn run_hot(plan: &Plan) -> Result<Outcome, String> {
    let expected = in_process_answers(&plan.requests)?;
    let mut setups = SetUps::default();
    let (fleet, reference) = start(plan, &mut setups, Some(&expected))?;
    let entry = fleet.entry.addr.clone();
    let cpu_start = CpuTimes::now();
    let (mut opens, mut closeds) = (Vec::new(), Vec::new());
    while opens.len() < CYCLES
        || (opens.len() < CYCLES * MAX_STRETCH
            && !(calm_enough(&opens, plan.open_keep())?
                && calm_enough(&closeds, plan.closed_keep())?))
    {
        if !plan.args.trace {
            spare_set_ups(plan, &mut setups, &expected, opens.len())?;
        }
        opens.push(plan.open(&entry, plan.open_secs(), None)?);
        closeds.push(plan.closed(&entry)?);
    }
    let steal = cpu_start.steal_share(CpuTimes::now());

    let mut tally = Tally::default();
    let open_latency: Vec<Vec<f64>> = opens
        .iter()
        .map(|phase| tally.check(phase, &plan.order, &reference))
        .collect();
    let closed_ok: Vec<Vec<bool>> = closeds
        .iter()
        .map(|phase| {
            let latencies = tally.check(phase, &plan.order, &reference);
            latencies.iter().map(|ms| ms.is_finite()).collect()
        })
        .collect();
    let mut out = Outcome::default();
    let live = Latency::of(&opens, &open_latency, plan.open_keep())?;
    let late_max = opens.iter().map(Phase::late_max_ms).fold(0.0, f64::max);
    if late_max > LATE_BOUND_MS {
        out.invalid.push(format!(
            "the generator sent a request {late_max:.1} ms late (bound {LATE_BOUND_MS} ms)"
        ));
    }
    let achieved: usize = opens.iter().map(Phase::completed_in_time).sum();
    out.set("gen.late_ms.max", late_max);
    out.set("host.steal_share", steal);
    out.note(format!(
        "{} open-loop phases of {:.1} s: offered {:.1} req/s, achieved {:.1} req/s over \
         {CONNS} connections; generator late max {late_max:.3} ms; host steal share {steal:.4}",
        opens.len(),
        plan.open_secs(),
        plan.kind.rate(),
        achieved as f64 / (plan.open_secs() * opens.len() as f64),
    ));
    out.note(format!(
        "open-loop latency from scheduled send: {}",
        live.render()
    ));

    if plan.args.trace {
        traced(plan, &fleet, &reference, &mut tally, &mut out, Some(&live))?;
    } else {
        let capacity = Capacity::of(plan, &closeds, &closed_ok)?;
        out.set("setup_s", setups.calm_median());
        out.set("refs_per_s", capacity.refs_per_s);
        out.set("p50_ms", live.p50);
        out.set("p90_ms", live.p90);
        out.set("capacity_rps", capacity.rps);
        let mut rss = 0.0;
        for server in fleet.servers() {
            rss += server.peak_rss_mib().map_err(|e| e.to_string())?;
        }
        out.set("peak_rss_mb", rss);
        out.note(format!(
            "{} capacity phases of {:.1} s with {} in flight per connection: {} answers; \
             median over the {} calmest {WINDOW_S} s windows (steal {:.4}): {:.1} req/s, so the \
             open loop's {:.0} req/s offers {:.1}% of capacity",
            closeds.len(),
            plan.closed_secs(),
            IN_FLIGHT,
            capacity.answered,
            capacity.windows,
            capacity.steal,
            capacity.rps,
            plan.kind.rate(),
            plan.kind.rate() / capacity.rps * 100.0,
        ));
        out.note(setups.render());
    }
    out.attempted = tally.attempted;
    out.failed = tally.failed();
    out.note(format!(
        "answers: {} attempted, {} errors, {} overloaded, {} timeouts, {} wrong",
        tally.attempted, tally.errors, tally.overloaded, tally.timeouts, tally.wrong
    ));
    fleet.stop()?;
    Ok(out)
}

/// References a request covers (its `len`).
fn request_len(request: &Request) -> usize {
    match request {
        Request::Simulate(spec) => spec.len,
        Request::Sweep(spec) => spec.len,
        _ => 0,
    }
}

/// The traced passes and the per-layer metrics: an open loop with the
/// generator recording spans (registry counts are diffed around it),
/// for routed-warm the same lines straight to one shard, then the
/// in-process replay. `live` is the untraced open-loop latency, for the
/// tracing overhead.
fn traced(
    plan: &Plan,
    fleet: &Fleet,
    reference: &[String],
    tally: &mut Tally,
    out: &mut Outcome,
    live: Option<&Latency>,
) -> Result<(), String> {
    let routed = plan.kind == Kind::RoutedWarm;
    let open_secs = plan.open_secs() * CYCLES as f64;
    let mut recorder = Recorder::new();
    let stats_before = one_pass_stats_refs(fleet)?;
    let before = Snapshot::take(fleet)?;
    let traced_open = plan.open(&fleet.entry.addr, open_secs, Some(&mut recorder))?;
    let after = Snapshot::take(fleet)?;
    let polls =
        stats::histogram_delta(&before.entry, &after.entry, "event_loop_poll_wait_us").count;
    out.set(
        "event_loop.wakeups_per_req",
        polls as f64 / traced_open.exchanges.len() as f64,
    );
    let wait = stats::histogram_delta(&before.entry, &after.entry, "serve_queue_wait_ms");
    out.set("queue.wait_ms.p90", stats::histogram_quantile(&wait, 0.9));
    let lookups = |hits: &str, misses: &str| {
        let hits = after.executor_sum(&before, hits);
        (hits, hits + after.executor_sum(&before, misses))
    };
    let (pool_hits, pool_lookups) = lookups("pool_hits_total", "pool_misses_total");
    let (store_hits, store_lookups) = lookups("store_hits_total", "store_misses_total");
    // Set-up warmed the layer each traffic reads: hot-simulate's pool
    // answers every lookup, and routed-warm's stores every request.
    if routed {
        out.require_ratio("store.hit_ratio", store_hits, store_lookups, 1.0);
    } else {
        out.require_ratio("trace_pool.hit_ratio", pool_hits, pool_lookups, 1.0);
    }
    out.note(format!(
        "registry over the traced open loop: pool {pool_hits} hits in {pool_lookups} lookups, \
         store {store_hits} hits in {store_lookups} lookups"
    ));
    out.set(
        "trace_pool.materialized_mb",
        after.executor_sum(&before, "pool_materialized_bytes_total") as f64 / host::MIB,
    );
    if routed {
        let forwarded = stats::counter_delta(&before.entry, &after.entry, "router_forwarded_total");
        let executed = after.executor_count(&before, "serve_exec_ms");
        let busiest = executed.iter().copied().max().unwrap_or(0);
        out.set(
            "router.shard_share_max",
            busiest as f64 / forwarded.max(1) as f64,
        );
        for (metric, counter) in [
            ("router.hedged", "router_hedged_total"),
            ("router.shard_overloads", "router_shard_overloads_total"),
        ] {
            out.set(
                metric,
                stats::counter_delta(&before.entry, &after.entry, counter) as f64,
            );
        }
        out.note(format!(
            "router forwarded {forwarded}; shards executed {executed:?}"
        ));
        out.note(format!(
            "over the traced open loop the shards' `stats` one_pass.refs grew by {} while their \
             registry one_pass_refs_total grew by {}",
            one_pass_stats_refs(fleet)?.saturating_sub(stats_before),
            after.executor_sum(&before, "one_pass_refs_total"),
        ));
    }
    let latencies = tally.check(&traced_open, &plan.order, reference);
    let traced_live = Latency::of(
        std::slice::from_ref(&traced_open),
        &[latencies],
        plan.open_keep(),
    )?;
    if let Some(live) = live {
        out.set(
            "trace.overhead_pct",
            (traced_live.p50 - live.p50) / live.p50 * 100.0,
        );
    }
    out.note(format!("traced open loop: {}", traced_live.render()));
    for (metric, sweep) in [
        ("protocol.reply_bytes.simulate", false),
        ("protocol.reply_bytes.sweep", true),
    ] {
        let sizes: Vec<f64> = traced_open
            .exchanges
            .iter()
            .filter(|e| matches!(plan.request_of(e.id), Request::Sweep(_)) == sweep)
            .filter_map(|e| e.reply.as_ref().map(|r| r.len() as f64 + 1.0))
            .collect();
        out.set(metric, stats::mean(&sizes));
    }

    // The same lines straight to one shard, for the router hop.
    let residual_base = if routed {
        let direct_open = plan.open(&fleet.shards[0].addr, open_secs, None)?;
        let latencies = tally.check(&direct_open, &plan.order, reference);
        let direct = Latency::of(
            std::slice::from_ref(&direct_open),
            &[latencies],
            plan.open_keep(),
        )?;
        out.set("router.hop_us", (traced_live.p50 - direct.p50) * 1e3);
        out.note(format!("direct to one shard: {}", direct.render()));
        direct.p50
    } else {
        traced_live.p50
    };

    replay(
        plan,
        reference,
        tally,
        out,
        &mut recorder,
        traced_open.exchanges.len(),
        residual_base,
    )?;
    if routed {
        let store = Store::open(plan.dir.join("put-store")).map_err(|e| format!("store: {e}"))?;
        let mut puts = Vec::new();
        for (i, answer) in reference.iter().enumerate() {
            let (written, us) = timed(&mut recorder, "store.put_json", i as u64, || {
                store.put_json(&format!("perfbench/{i}"), answer)
            });
            written.map_err(|e| format!("store put: {e}"))?;
            puts.push(us);
        }
        out.set("store.put_us", stats::median(&puts));
    }
    let path = plan.args.workdir.join(format!(
        "spans-{}-{}.ndjson",
        plan.kind.name(),
        plan.args.seed
    ));
    recorder
        .write_ndjson(&path)
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    out.note(format!("spans written to {}", path.display()));
    Ok(())
}

/// The executors' `one_pass.refs` from the `stats` request, summed: the
/// hand-kept counter the benchmark does not use for its figures.
fn one_pass_stats_refs(fleet: &Fleet) -> Result<u64, String> {
    let mut refs = 0;
    for server in fleet.executors() {
        match server
            .call(&Request::Stats)
            .map_err(|e| format!("stats: {e}"))?
        {
            Response::Stats(stats) => refs += stats.one_pass.map_or(0, |o| o.refs),
            other => return Err(format!("stats answered {}", other.encode())),
        }
    }
    Ok(refs)
}

/// Runs `f` in a span and returns its result with the span's µs.
fn timed<R>(
    recorder: &mut Recorder,
    name: &'static str,
    id: u64,
    f: impl FnOnce() -> R,
) -> (R, f64) {
    let index = recorder.spans().len();
    let value = recorder.time(name, id, |_| f());
    (value, recorder.spans()[index].us())
}

/// Per-request timings of the in-process replay, in µs.
struct Row {
    sweep: bool,
    family: bool,
    decode: f64,
    resolve: f64,
    exec: f64,
    pool: f64,
    cachesim: f64,
    encode: f64,
}

/// The per-config cache a `simulate` request describes.
fn cache_config(spec: &SimulateSpec) -> Result<CacheConfig, String> {
    let mapping = match spec.cache.ways {
        None => Mapping::FullyAssociative,
        Some(1) => Mapping::Direct,
        Some(ways) => Mapping::SetAssociative(ways),
    };
    CacheConfig::builder(spec.cache.size)
        .line_size(spec.cache.line)
        .mapping(mapping)
        .replacement(Replacement::Lru)
        .purge_interval(spec.cache.purge)
        .build()
        .map_err(|e| e.to_string())
}

/// One request of the replay: decode, resolve, exec, encode, each in a
/// span. For hot-simulate, exec's pool read and cache simulation are
/// then timed again on their own, since exec cannot be entered.
fn replay_one(
    recorder: &mut Recorder,
    id: u64,
    session: &SimSession,
    line: &str,
    hot: bool,
) -> Result<(Response, Row), String> {
    let (request, decode) = timed(recorder, "protocol.decode", id, || Request::decode(line));
    let request = request.map_err(|e| e.to_string())?;
    let (name, seed, len) = match &request {
        Request::Simulate(spec) => (&spec.workload, spec.seed, spec.len),
        Request::Sweep(spec) => (&spec.workload, spec.seed, spec.len),
        other => return Err(format!("not a job request: {}", other.encode())),
    };
    let (workload, resolve) = timed(recorder, "experiments.resolve", id, || {
        resolve_named_workload(name, seed)
    });
    let workload = workload.ok_or_else(|| format!("unknown workload {name}"))?;
    let (response, exec) = timed(recorder, "exec.run", id, || execute(session, &request));
    let response = response?;
    let (mut pool, mut cachesim) = (0.0, 0.0);
    if let (true, Request::Simulate(spec)) = (hot, &request) {
        let config = cache_config(spec)?;
        let trace;
        (trace, pool) = timed(recorder, "trace_pool.workload", id, || {
            session.pool().workload(&workload, len)
        });
        let simulated;
        (simulated, cachesim) = timed(recorder, "cachesim.simulate_unified", id, || {
            session.simulate_unified(&trace.as_slice()[..len], config)
        });
        simulated.map_err(|e| e.to_string())?;
    }
    let (_, encode) = timed(recorder, "protocol.encode", id, || response.encode());
    let row = Row {
        sweep: matches!(request, Request::Sweep(_)),
        family: workload.family_name() != "cpu",
        decode,
        resolve,
        exec,
        pool,
        cachesim,
        encode,
    };
    Ok((response, row))
}

/// Replays the first `count` lines of the send order in process, with
/// the servers idle, on a session set up like a server's: a warm pool
/// (hot-simulate) or a warm store (routed-warm).
fn replay(
    plan: &Plan,
    reference: &[String],
    tally: &mut Tally,
    out: &mut Outcome,
    recorder: &mut Recorder,
    count: usize,
    live_p50_ms: f64,
) -> Result<(), String> {
    let hot = plan.kind == Kind::HotSimulate;
    let mut builder = SimSession::builder();
    if !hot {
        builder = builder.store(plan.dir.join("replay-store"));
    }
    let session = builder
        .build()
        .map_err(|e| format!("replay session: {e}"))?;
    for request in &plan.requests {
        execute(&session, request)?;
    }
    let mut rows = Vec::with_capacity(count);
    for id in 0..count {
        let line = &plan.sent[id % plan.sent.len()];
        let (response, row) = recorder.time("replay", id as u64, |r| {
            replay_one(r, id as u64, &session, line, hot)
        })?;
        tally.score(
            Some(&response.encode()),
            &reference[plan.order[id % plan.order.len()]],
        );
        rows.push(row);
    }
    let p50 = |keep: &dyn Fn(&Row) -> bool, value: &dyn Fn(&Row) -> f64| {
        let values: Vec<f64> = rows.iter().filter(|r| keep(r)).map(value).collect();
        stats::median(&values)
    };
    let all = |_: &Row| true;
    let simulate = |r: &Row| !r.sweep;
    let sweep = |r: &Row| r.sweep;
    out.set("protocol.decode_us", p50(&all, &|r| r.decode));
    out.set(
        "experiments.resolve_us.cpu",
        p50(&|r| !r.family, &|r| r.resolve),
    );
    out.set(
        "experiments.resolve_us.family",
        p50(&|r| r.family, &|r| r.resolve),
    );
    out.set("protocol.encode_us.simulate", p50(&simulate, &|r| r.encode));
    out.set("protocol.encode_us.sweep", p50(&sweep, &|r| r.encode));
    if hot {
        out.set(
            "exec.self_us",
            p50(&all, &|r| r.exec - r.resolve - r.pool - r.cachesim),
        );
        out.set("trace_pool.hit_us", p50(&all, &|r| r.pool));
        out.set("cachesim.simulate_us", p50(&all, &|r| r.cachesim));
    } else {
        out.set("exec.store_hit_us.simulate", p50(&simulate, &|r| r.exec));
        out.set("exec.store_hit_us.sweep", p50(&sweep, &|r| r.exec));
    }
    let in_process = p50(&all, &|r| r.decode + r.exec + r.encode);
    out.set("event_loop.residual_us", live_p50_ms * 1e3 - in_process);
    out.note(format!(
        "in-process replay of {count} lines: decode + exec + encode p50 {in_process:.1} us \
         against a live p50 of {:.1} us",
        live_p50_ms * 1e3
    ));
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::load::Exchange;
    use smith85_serve::protocol::{ErrorBody, SimulateResult};

    fn answer(misses: u64, trace_id: &str, exec_ms: u64) -> Response {
        Response::Simulate(SimulateResult {
            workload: "VCCOM".to_string(),
            len: 10,
            cache_bytes: 1_024,
            refs: 10,
            misses,
            miss_ratio: misses as f64 / 10.0,
            instruction_miss_ratio: 0.0,
            data_miss_ratio: 0.0,
            traffic_bytes: 0,
            queue_ms: 3,
            exec_ms,
            trace_id: trace_id.to_string(),
        })
    }

    #[test]
    fn failures_count_by_kind_and_miss_every_latency_limit() {
        let reference = vec![normalized(answer(4, "", 0)).unwrap()];
        let refused = Response::Error(ErrorBody::new(ErrorCode::Overloaded, "queue full"));
        let replies = [
            Some(answer(4, "abc123", 7).encode()),
            Some(refused.encode()),
            None,
            Some(answer(5, "", 0).encode()),
            Some("not json".to_string()),
        ];
        let exchanges = replies
            .into_iter()
            .enumerate()
            .map(|(id, reply)| Exchange {
                id,
                due: Duration::ZERO,
                sent: Duration::ZERO,
                done: reply.as_ref().map(|_| Duration::from_millis(2)),
                reply,
            })
            .collect();
        let phase = Phase {
            cpu_marks: Vec::new(),
            pace: Pace::Closed {
                window: 1,
                duration: Duration::from_secs(1),
            },
            exchanges,
        };
        let mut tally = Tally::default();
        let latencies = tally.check(&phase, &[0], &reference);
        assert_eq!(
            latencies[0], 2.0,
            "timings and trace ids are normalized away"
        );
        assert!(
            latencies[1..].iter().all(|ms| ms.is_infinite()),
            "{latencies:?}"
        );
        assert_eq!(
            (
                tally.attempted,
                tally.overloaded,
                tally.timeouts,
                tally.wrong,
                tally.errors
            ),
            (5, 1, 1, 1, 1)
        );
        assert_eq!(tally.failed(), 4);
    }

    #[test]
    fn every_seed_gets_the_same_footprint_mix() {
        let shape = |r: &Request| match r {
            Request::Simulate(s) => (s.workload.clone(), s.len, s.cache.size, s.cache.ways),
            Request::Sweep(s) => (s.workload.clone(), s.len, 0, None),
            other => panic!("unexpected {other:?}"),
        };
        for (kind, keys, sweeps) in [(Kind::HotSimulate, 128, 0), (Kind::RoutedWarm, 252, 60)] {
            let (a, b) = (kind.requests(1), kind.requests(2));
            assert_eq!(a.len(), keys);
            assert_eq!(
                a.iter().filter(|r| matches!(r, Request::Sweep(_))).count(),
                sweeps
            );
            assert_eq!(
                a.iter().map(shape).collect::<Vec<_>>(),
                b.iter().map(shape).collect::<Vec<_>>()
            );
            assert_ne!(a, b, "the seed picks the generator seeds");
            assert_eq!(a, kind.requests(1));
        }
        let hot = Kind::HotSimulate.requests(1);
        let family = hot
            .iter()
            .filter(|r| {
                resolve_named_workload(&shape(r).0, None)
                    .unwrap()
                    .family_name()
                    != "cpu"
            })
            .count();
        assert_eq!(
            family * 4,
            hot.len(),
            "a quarter of hot-simulate is family profiles"
        );
        let order = sequence(7, 10, 3);
        assert_eq!(order, sequence(7, 10, 3));
        assert_ne!(order, sequence(8, 10, 3));
        for key in 0..10 {
            assert_eq!(
                order.iter().filter(|&&k| k == key).count(),
                3,
                "each pass sends every key"
            );
        }
    }
}
