//! Multi-process session driver: spawns N real `pdmapd` processes with
//! deliberately skewed clocks, connects a [`DaemonSet`] to all of them
//! over TCP, and verifies the §4.2.3 topology end to end — mappings
//! imported from every daemon, one merged clock-aligned sample stream,
//! and per-link datamgr shard counters (imports, samples, lock wait)
//! showing every daemon's mapping information and samples arrived.
//!
//! ```sh
//! cargo run -p pdmap-bench --release --bin multi_daemon            # 4 daemons
//! cargo run -p pdmap-bench --release --bin multi_daemon -- 2      # 2 daemons
//! cargo run -p pdmap-bench --release --bin multi_daemon -- 4 --chaos
//! cargo run -p pdmap-bench --release --bin multi_daemon -- \
//!     4 --chaos --fault-plan "seed=42 dup=0.05 delay=0.05x2" --secret hunter2
//! ```
//!
//! `--chaos` runs the fault drill instead of the steady-state session:
//! SIGKILL one of the N daemons mid-stream, assert the supervisor reports
//! `Coverage { nodes_reporting: N-1 }` (loss labeled, never a silent
//! zero), retry the dead address for 1 s and assert no `supervise` pass
//! stalls on it (`max_supervise_ms` < 500), respawn a replacement on a
//! fresh port, and assert readmission back to N/N. `--fault-plan`
//! additionally wraps every tool→daemon link in a seeded
//! [`FaultInjector`]; the report carries the injector's conservation
//! check. `--secret` makes every daemon require the passphrase at
//! handshake. Exits nonzero on uncovered loss — samples that vanished
//! without showing up in `samples_lost`.
//!
//! ```sh
//! cargo run -p pdmap-bench --release --bin multi_daemon -- --relay-fanout 8
//! ```
//!
//! `--relay-fanout F` runs the fleet drill instead: an F-relay ×
//! F-leaves-each aggregation tree (64 leaf processes at F=8, all real
//! `pdmapd`s, batching samples), preceded by a flat baseline session
//! over 16 direct daemons sending one-sample batches. Both sessions are driven through the
//! same pooled drain and audited for conservation and coverage; the JSON
//! report carries samples/sec, frames/sec, and p99 drain latency for
//! each, and the drill fails unless the tree drains ≥ 5× the baseline's
//! samples/sec.
//!
//! ```sh
//! cargo run -p pdmap-bench --release --bin multi_daemon -- --failover
//! ```
//!
//! `--failover` runs the relay failover drill: an 8-relay × 8-leaves
//! aggregation tree (64 streaming leaf processes, all with a failover
//! budget and a replay ring), SIGKILL one relay mid-stream (`--seed`
//! picks the victim reproducibly), and the tool's supervisor adopts the
//! orphaned subtree from the dead relay's last topology announcement —
//! dialing the 8 leaves directly, seeding their replay with the exact
//! per-child source marks, and folding coverage back to 64/64. Exits
//! nonzero unless conservation closes exactly (zero lost, zero
//! duplicated) and the fleet heals within the deadline. Prints the
//! `BENCH_failover.json` document on stdout.
//!
//! ```sh
//! cargo run -p pdmap-bench --release --bin multi_daemon -- --health
//! ```
//!
//! `--health` runs the fleet health drill: a 16-daemon session without
//! telemetry, then the same session with `--obs-period` self-sampling on
//! every leaf. Asserts every node's health reaches the tool's
//! [`FleetHealth`](paradyn_tool::FleetHealth) view, remote `ask_obs`
//! questions answer from the streamed snapshots, the aggregated
//! perturbation stays under 5% of reported span time, and the
//! per-process span dumps merge into one clock-aligned Chrome trace
//! (written to `TRACE_fleet.json`). Prints the `BENCH_health.json`
//! document on stdout.
//!
//! Finds the `pdmapd` binary via `$PDMAPD_BIN` or next to this
//! executable (both live in the same cargo target dir). Prints a JSON
//! report and exits nonzero on any failed assertion — CI's hard gate for
//! the multi-process session.

use paradyn_tool::{DaemonHealth, DaemonSet, DataManager, SupervisorPolicy};
use pdmap::model::Namespace;
use pdmap_transport::{
    secret_from_str, FaultInjector, FaultPlan, ReconnectPolicy, TcpClient, Transport,
    TransportConfig,
};
use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::process::{Child, Command, ExitCode, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A hard wall for the whole session; generous because CI boxes stall.
const DEADLINE: Duration = Duration::from_secs(60);
const SAMPLES_PER_DAEMON: usize = 8;

fn pdmapd_path() -> std::path::PathBuf {
    if let Ok(p) = std::env::var("PDMAPD_BIN") {
        return p.into();
    }
    let mut p = std::env::current_exe().expect("current_exe");
    p.pop();
    p.push("pdmapd");
    p
}

struct DaemonProc {
    child: Child,
    addr: SocketAddr,
    skew_ns: i64,
}

/// Spawns one `pdmapd` process with the given argv tail and reads its
/// `PDMAPD LISTENING <addr>` banner.
fn spawn_proc(bin: &std::path::Path, skew_ns: i64, args: &[String]) -> DaemonProc {
    let mut child = Command::new(bin)
        .args(args)
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()
        .unwrap_or_else(|e| panic!("cannot spawn {}: {e}", bin.display()));
    let stdout = child.stdout.take().expect("child stdout piped");
    let mut line = String::new();
    BufReader::new(stdout)
        .read_line(&mut line)
        .expect("read pdmapd banner");
    let addr = line
        .trim()
        .strip_prefix("PDMAPD LISTENING ")
        .unwrap_or_else(|| panic!("unexpected pdmapd banner: {line:?}"))
        .parse()
        .expect("pdmapd printed a socket address");
    DaemonProc {
        child,
        addr,
        skew_ns,
    }
}

fn spawn_daemon(
    bin: &std::path::Path,
    skew_ns: i64,
    samples: usize,
    linger_ms: u64,
    secret: Option<&str>,
) -> DaemonProc {
    let mut args: Vec<String> = [
        "--listen",
        "127.0.0.1:0",
        "--skew-ns",
        &skew_ns.to_string(),
        "--samples",
        &samples.to_string(),
        "--period-ms",
        "5",
        "--linger-ms",
        &linger_ms.to_string(),
        "--connect-timeout-ms",
        "30000",
    ]
    .map(str::to_owned)
    .to_vec();
    if let Some(phrase) = secret {
        args.extend(["--secret".into(), phrase.to_owned()]);
    }
    spawn_proc(bin, skew_ns, &args)
}

/// Flags parsed from the command line.
struct Options {
    n: usize,
    chaos: bool,
    health: bool,
    failover: bool,
    seed: u64,
    relay_fanout: Option<usize>,
    plan: FaultPlan,
    secret: Option<String>,
}

fn parse_options() -> Options {
    let mut opts = Options {
        n: 4,
        chaos: false,
        health: false,
        failover: false,
        seed: 42,
        relay_fanout: None,
        plan: FaultPlan::none(),
        secret: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--chaos" => opts.chaos = true,
            "--health" => opts.health = true,
            "--failover" => opts.failover = true,
            "--seed" => {
                let s = args.next().expect("--seed requires a value");
                opts.seed = s.parse().unwrap_or_else(|_| panic!("bad --seed"));
            }
            "--relay-fanout" => {
                let f = args.next().expect("--relay-fanout requires a value");
                opts.relay_fanout =
                    Some(f.parse().unwrap_or_else(|_| panic!("bad --relay-fanout")));
            }
            "--fault-plan" => {
                let spec = args.next().expect("--fault-plan requires a value");
                opts.plan =
                    FaultPlan::parse(&spec).unwrap_or_else(|e| panic!("bad --fault-plan: {e}"));
            }
            "--secret" => {
                opts.secret = Some(args.next().expect("--secret requires a value"));
            }
            other => {
                opts.n = other
                    .parse()
                    .unwrap_or_else(|_| panic!("unknown argument '{other}'"));
            }
        }
    }
    opts
}

fn main() -> ExitCode {
    let opts = parse_options();
    if opts.chaos {
        return chaos_main(&opts);
    }
    if opts.health {
        return health_main();
    }
    if opts.failover {
        return failover_main(&opts);
    }
    if opts.relay_fanout.is_some() {
        return fleet_main(&opts);
    }
    let n = opts.n;
    let bin = pdmapd_path();
    let t0 = Instant::now();

    // Skews straddle zero, 40 ms apart, so every pair is clearly split.
    let mut procs: Vec<DaemonProc> = (0..n)
        .map(|i| {
            spawn_daemon(
                &bin,
                (i as i64 - (n as i64 - 1) / 2) * 40_000_000,
                SAMPLES_PER_DAEMON,
                2000,
                opts.secret.as_deref(),
            )
        })
        .collect();
    let addrs: Vec<SocketAddr> = procs.iter().map(|p| p.addr).collect();
    eprintln!("spawned {n} pdmapd processes: {addrs:?}");

    let data = Arc::new(DataManager::sharded(Namespace::new(), "CM Fortran", n));
    let cfg = TransportConfig {
        secret: opts.secret.as_deref().map(secret_from_str),
        ..TransportConfig::default()
    };
    let mut set = DaemonSet::connect(&addrs, cfg, data);
    let t_session_lo = pdmap_obs::now_ns();
    if let Err(e) = set.clock_sync(5, DEADLINE / 4) {
        eprintln!("error: {e}");
        kill_all(&mut procs);
        return ExitCode::FAILURE;
    }
    let want = n * SAMPLES_PER_DAEMON;
    let deadline = t0 + DEADLINE;
    while set.samples().len() < want && Instant::now() < deadline {
        set.pump_parallel();
        std::thread::sleep(Duration::from_millis(1));
    }

    // ---- Assertions --------------------------------------------------
    let mut ok = true;
    let mut check = |what: &str, cond: bool| {
        if !cond {
            eprintln!("FAIL: {what}");
            ok = false;
        }
    };
    check(
        "tool imported PIF mappings",
        set.data().with_mappings(|m| m.len()) > 0,
    );
    for i in 0..n {
        let st = set.data().shard_stats(i);
        check(
            &format!("daemon {i} delivered >=1 sample"),
            set.conn(i).samples_received() >= 1,
        );
        check(&format!("shard {i} recorded imports"), st.imports > 0);
        check(
            &format!("shard {i} recorded samples"),
            st.samples == set.conn(i).samples_received(),
        );
    }
    let t_session_hi = pdmap_obs::now_ns();
    let merged = set.merged_samples();
    check("all samples arrived", merged.len() >= want);
    check(
        "merged stream nondecreasing in aligned time",
        merged
            .windows(2)
            .all(|w| w[0].aligned_ns <= w[1].aligned_ns),
    );
    // Cross-process clock facts: a daemon's offset mixes its injected skew
    // with the (arbitrary, unobservable) gap between process clock origins,
    // so exact skew recovery is only assertable in-process — the paradyn
    // and pdmapd test suites do that. What must hold here:
    for i in 0..n {
        let c = set.conn(i).clock();
        check(
            &format!("daemon {i} completed all sync rounds"),
            c.rounds == 5,
        );
        check(
            &format!("daemon {i} rtt is sane ({} ns)", c.rtt_ns),
            c.rtt_ns < 2_000_000_000,
        );
        // Alignment is per-daemon monotone, so each daemon's samples keep
        // their send order (encoded in the value) through the merge.
        let vals: Vec<f64> = merged
            .iter()
            .filter(|s| s.daemon == i)
            .map(|s| s.value)
            .collect();
        check(
            &format!("daemon {i} samples keep send order after merge"),
            vals.windows(2).all(|w| w[0] < w[1]),
        );
    }
    // Every aligned stamp lands inside the tool-clock session window:
    // the daemons sampled between connect and final pump, so stamps that
    // alignment mapped correctly can only fall in that interval (± the
    // rtt-bounded estimate error). Raw skewed walls from another process
    // have no such guarantee — this is what "clock-aligned" buys.
    let margin = 100_000_000u64; // 100 ms ≫ any rtt/2 seen on loopback
    check(
        "aligned stamps fall inside the session window",
        merged.iter().all(|s| {
            s.aligned_ns + margin >= t_session_lo && s.aligned_ns <= t_session_hi + margin
        }),
    );
    check(
        "where axis holds the workload hierarchy",
        set.data().render_where_axis().contains("CMFarrays"),
    );

    // ---- JSON report -------------------------------------------------
    let daemons_json: Vec<String> = (0..n)
        .map(|i| {
            let c = set.conn(i).clock();
            let st = set.data().shard_stats(i);
            format!(
                r#"{{"addr":"{}","skew_ns":{},"offset_ns":{},"rtt_ns":{},"samples":{},"imports":{},"lock_wait_ns":{}}}"#,
                addrs[i],
                procs[i].skew_ns,
                c.offset_ns,
                c.rtt_ns,
                st.samples,
                st.imports,
                st.lock_wait_ns
            )
        })
        .collect();
    println!(
        r#"{{"daemons":{},"merged_samples":{},"merged_ok":{},"elapsed_ms":{},"per_daemon":[{}]}}"#,
        n,
        merged.len(),
        ok,
        t0.elapsed().as_millis(),
        daemons_json.join(",")
    );

    for p in &mut procs {
        match p.child.wait() {
            Ok(status) if status.success() => {}
            Ok(status) => {
                eprintln!("FAIL: pdmapd at {} exited {status}", p.addr);
                ok = false;
            }
            Err(e) => {
                eprintln!("FAIL: waiting for pdmapd at {}: {e}", p.addr);
                ok = false;
            }
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Runs the consultant twice over an in-process workload — once at full
/// coverage, once stamped with the drill's degraded
/// [`SessionCoverage`](paradyn_tool::SessionCoverage) —
/// and checks the flip rules: decided verdicts may weaken to Unknown but
/// never cross to the opposite decided answer, at least one borderline
/// hypothesis *does* weaken, and the audit invariant (no decided verdict
/// from a straddling interval) holds. Returns `(flips_to_unknown,
/// audit_ok)` for the JSON report.
fn verdict_drill(
    n: usize,
    session: paradyn_tool::SessionCoverage,
    check: &mut impl FnMut(&str, bool),
) -> (usize, bool) {
    use paradyn_tool::consultant::{audit, render, search, ConsultantConfig, Verdict};

    let mut tool = paradyn_tool::Paradyn::new(cmrts_sim::MachineConfig {
        nodes: n,
        ..cmrts_sim::MachineConfig::default()
    });
    tool.load_source(cmf_lang::samples::ALL_VERBS)
        .expect("sample program loads");

    // Pick the threshold just above the largest full-coverage ratio, close
    // enough that one missing node's widening (hi = ratio × n/(n-1))
    // crosses it: the top hypothesis is decidedly False at n/n and must
    // straddle at (n-1)/n, whatever n the drill ran with.
    let probe = search(&tool, &ConsultantConfig::default());
    let r_max = probe.iter().map(|e| e.ratio).fold(0.0f64, f64::max);
    if r_max <= 0.0 {
        check("verdict drill found a nonzero ratio to straddle", false);
        return (0, false);
    }
    let config = ConsultantConfig {
        threshold: r_max * (1.0 + 0.5 / (n as f64 - 1.0)),
        max_depth: 1,
    };

    let full = search(&tool, &config);
    check(
        "full-coverage verdicts are all decided",
        full.iter().all(|e| e.verdict.is_decided()),
    );

    tool.set_session_coverage(Some(session));
    let degraded = search(&tool, &config);
    let mut flips_to_unknown = 0;
    for (f, d) in full.iter().zip(&degraded) {
        match (f.verdict, d.verdict) {
            (Verdict::True, Verdict::False) | (Verdict::False, Verdict::True) => {
                check(
                    &format!(
                        "{}: verdict crossed {:?} -> {:?}",
                        d.hypothesis, f.verdict, d.verdict
                    ),
                    false,
                );
            }
            (v, Verdict::Unknown) if v.is_decided() => flips_to_unknown += 1,
            _ => {}
        }
    }
    check(
        "killing a daemon flips borderline verdicts to Unknown",
        flips_to_unknown >= 1,
    );
    let violations = audit(&degraded, config.threshold);
    let audit_ok = violations.is_empty();
    for v in &violations {
        eprintln!("FAIL: verdict audit: {v}");
    }
    check(
        "no decided verdict rests on a straddling interval",
        audit_ok,
    );
    check(
        "degraded verdicts render their coverage",
        render(&degraded).contains(&format!("{}/{} nodes", n - 1, n)),
    );
    (flips_to_unknown, audit_ok)
}

fn kill_all(procs: &mut [DaemonProc]) {
    for p in procs {
        let _ = p.child.kill();
        let _ = p.child.wait();
    }
}

/// A transport tuned for fast failure detection (a dead peer is declared
/// not-alive after 400 ms instead of 2 s), optionally carrying a secret.
fn chaos_transport(secret: Option<&str>) -> TransportConfig {
    TransportConfig {
        liveness_timeout: Duration::from_millis(400),
        heartbeat_every: Duration::from_millis(50),
        secret: secret.map(secret_from_str),
        reconnect: ReconnectPolicy {
            max_attempts: 4,
            base_delay: Duration::from_millis(10),
            max_delay: Duration::from_millis(100),
            jitter_seed: 0xC0FFEE,
        },
        ..TransportConfig::default()
    }
}

/// The fault drill: kill one daemon, demand labeled loss, respawn, demand
/// readmission. Exits nonzero on any failed check — in particular on
/// *uncovered* loss, samples gone without a trace in `samples_lost`.
fn chaos_main(opts: &Options) -> ExitCode {
    let n = opts.n.max(2);
    let bin = pdmapd_path();
    let secret = opts.secret.as_deref();
    let t0 = Instant::now();
    let deadline = t0 + DEADLINE * 2;

    // Long-running daemons: the session must survive the whole drill.
    let mut procs: Vec<Option<DaemonProc>> = (0..n)
        .map(|i| {
            Some(spawn_daemon(
                &bin,
                i as i64 * 10_000_000,
                2000,
                60_000,
                secret,
            ))
        })
        .collect();
    let addrs: Vec<SocketAddr> = procs.iter().map(|p| p.as_ref().unwrap().addr).collect();
    eprintln!("chaos: spawned {n} pdmapd processes: {addrs:?}");

    // Tool→daemon links, each optionally behind a seeded fault injector.
    let mut injectors: Vec<Arc<FaultInjector>> = Vec::new();
    let transports: Vec<(String, Arc<dyn Transport>)> = addrs
        .iter()
        .map(|addr| {
            let client = TcpClient::connect(*addr, chaos_transport(secret)) as Arc<dyn Transport>;
            let tx = if opts.plan.is_nop() {
                client
            } else {
                let inj = FaultInjector::wrap(client, opts.plan.clone());
                injectors.push(inj.clone());
                inj as Arc<dyn Transport>
            };
            (addr.to_string(), tx)
        })
        .collect();
    let data = Arc::new(DataManager::sharded(Namespace::new(), "CM Fortran", n));
    let mut set = DaemonSet::over_transports(transports, data);
    set.set_policy(SupervisorPolicy {
        degrade_after: Duration::from_millis(200),
        quarantine_after: Duration::from_millis(400),
        retry: ReconnectPolicy {
            max_attempts: 20,
            base_delay: Duration::from_millis(20),
            max_delay: Duration::from_millis(200),
            jitter_seed: 7,
        },
        retry_sync_rounds: 3,
        retry_sync_timeout: Duration::from_secs(2),
        ..SupervisorPolicy::default()
    });

    let mut ok = true;
    let mut check = |what: &str, cond: bool| {
        if !cond {
            eprintln!("FAIL: {what}");
            ok = false;
        }
    };

    if let Err(e) = set.clock_sync(5, DEADLINE / 4) {
        eprintln!("error: {e}");
        let mut all: Vec<DaemonProc> = procs.into_iter().flatten().collect();
        kill_all(&mut all);
        return ExitCode::FAILURE;
    }
    set.pump_until_samples(2 * n, DEADLINE / 4);
    check(
        "pre-kill coverage is complete",
        set.coverage().is_complete(),
    );
    let mappings_before = set.data().with_mappings(|m| m.len());

    // SIGKILL the last daemon: no drain, no Goodbye — a crash.
    let victim = n - 1;
    let mut dead = procs[victim].take().unwrap();
    dead.child.kill().expect("kill pdmapd");
    dead.child.wait().expect("reap pdmapd");
    eprintln!("chaos: killed pdmapd at {}", dead.addr);

    while set.health(victim) != DaemonHealth::Quarantined && Instant::now() < deadline {
        set.pump_parallel();
        set.supervise();
        std::thread::sleep(Duration::from_millis(10));
    }
    let cov_during = set.coverage();
    check(
        &format!("kill is covered, not silent ({cov_during})"),
        cov_during.nodes_reporting == n - 1 && cov_during.nodes_total == n,
    );
    check(
        "merged output carries the degraded label",
        set.merged_samples().coverage().nodes_reporting == n - 1,
    );

    // Verdict drill: the consultant over this degraded session must weaken
    // borderline answers to Unknown — killing a daemon may never flip a
    // verdict to a *different decided* answer.
    let (flips_to_unknown, audit_ok) = verdict_drill(n, set.session_coverage(), &mut check);

    // Retries of the still-dead daemon must not stall the session: with
    // its reconnect factory pointed at the dead address, time every
    // `supervise` of a 1 s pump-and-supervise window.
    let redial = |addr: SocketAddr| -> paradyn_tool::ReconnectFn {
        let secret = secret.map(str::to_owned);
        Box::new(move || TcpClient::connect(addr, chaos_transport(secret.as_deref())) as _)
    };
    set.set_reconnect(victim, redial(dead.addr));
    let window_end = Instant::now() + Duration::from_secs(1);
    let mut max_supervise = Duration::ZERO;
    while Instant::now() < window_end {
        set.pump_parallel();
        let t = Instant::now();
        set.supervise();
        max_supervise = max_supervise.max(t.elapsed());
        std::thread::sleep(Duration::from_millis(10));
    }
    let max_supervise_ms = max_supervise.as_secs_f64() * 1e3;
    check(
        &format!("no supervise pass stalls on the dead daemon ({max_supervise_ms:.1} ms)"),
        max_supervise_ms < 500.0,
    );

    // Respawn on a fresh port and point the victim's reconnect factory at it.
    let replacement = spawn_daemon(&bin, victim as i64 * 10_000_000, 2000, 60_000, secret);
    let new_addr = replacement.addr;
    eprintln!("chaos: respawned replacement at {new_addr}");
    set.set_reconnect(victim, redial(new_addr));
    procs[victim] = Some(replacement);
    while set.health(victim) == DaemonHealth::Quarantined && Instant::now() < deadline {
        set.pump_parallel();
        set.supervise();
        std::thread::sleep(Duration::from_millis(10));
    }
    let cov_after = set.coverage();
    check(
        &format!("replacement readmitted ({cov_after})"),
        cov_after.is_complete(),
    );
    check(
        "readmission was logged",
        set.recoveries().iter().any(|r| r.daemon == victim),
    );
    check(
        "re-shipped PIF deduplicated",
        set.data().with_mappings(|m| m.len()) == mappings_before,
    );

    // Graceful wind-down: every survivor announces its send count, and
    // everything announced is either received or labeled lost.
    let final_cov = set.shutdown_all(DEADLINE / 2);
    let mut announced_total = 0u64;
    let mut received_total = 0u64;
    for i in 0..n {
        let conn = set.conn(i);
        if let Some(a) = conn.announced_sent() {
            announced_total += a;
            received_total += conn.samples_received();
        } else {
            check(&format!("daemon {i} announced its send count"), false);
        }
    }
    check(
        &format!(
            "no uncovered loss: announced {announced_total} == received {received_total} + lost {}",
            final_cov.samples_lost
        ),
        announced_total <= received_total + final_cov.samples_lost,
    );

    // Injector books (tool→daemon direction) must balance too.
    let mut conservation_ok = true;
    let mut faults_injected = 0u64;
    for inj in &injectors {
        inj.flush_delayed();
        let st = inj.fault_stats();
        conservation_ok &= st.conservation_ok();
        faults_injected += st.total_injected();
    }
    check("fault injector conservation law", conservation_ok);

    println!(
        r#"{{"chaos":true,"daemons":{n},"coverage_during":"{}/{}","coverage_after":"{}/{}","samples_lost":{},"recoveries":{},"fault_plan":"{}","faults_injected":{faults_injected},"conservation_ok":{conservation_ok},"verdict_flips_to_unknown":{flips_to_unknown},"verdict_audit_ok":{audit_ok},"max_supervise_ms":{max_supervise_ms:.1},"elapsed_ms":{},"ok":{ok}}}"#,
        cov_during.nodes_reporting,
        cov_during.nodes_total,
        cov_after.nodes_reporting,
        cov_after.nodes_total,
        final_cov.samples_lost,
        set.recoveries().len(),
        opts.plan,
        t0.elapsed().as_millis(),
    );

    let mut all: Vec<DaemonProc> = procs.into_iter().flatten().collect();
    kill_all(&mut all);
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

// ---- Fleet drill (`--relay-fanout F`) ----------------------------------

/// Samples each leaf streams in the fleet drill.
const FLEET_SAMPLES: usize = 100;
/// Flat-baseline width: ISSUE demands the ≥5× claim hold "at 16+ daemons".
const FLAT_BASELINE_N: usize = 16;

/// Drain-side measurements for one session: every `pump_parallel` call
/// that processed at least one frame contributes its duration, so the
/// rates measure the cost of draining, not the time spent waiting for
/// emission.
struct Drained {
    samples: usize,
    frames: usize,
    drain_ns: u64,
    p99_ns: u64,
}

impl Drained {
    fn samples_per_sec(&self) -> f64 {
        self.samples as f64 * 1e9 / self.drain_ns as f64
    }
    fn frames_per_sec(&self) -> f64 {
        self.frames as f64 * 1e9 / self.drain_ns as f64
    }
    fn json(&self, conns: usize, leaves: usize, cov: &paradyn_tool::Coverage) -> String {
        format!(
            r#"{{"connections":{},"leaves":{},"samples":{},"frames":{},"samples_per_sec":{:.0},"frames_per_sec":{:.0},"p99_drain_us":{:.1},"coverage":"{}/{}","samples_lost":{}}}"#,
            conns,
            leaves,
            self.samples,
            self.frames,
            self.samples_per_sec(),
            self.frames_per_sec(),
            self.p99_ns as f64 / 1e3,
            cov.nodes_reporting,
            cov.nodes_total,
            cov.samples_lost,
        )
    }
}

/// Pumps until `want` samples arrived (or the deadline), timing each
/// non-empty drain pass.
///
/// The fleet emits on its own calendar (1 ms period), so pumping while
/// samples trickle in would time the emission schedule, not the tool.
/// Frames a daemon sends the tool (server to client) are never acked:
/// the tool's reader threads buffer each read burst as it arrives, so the
/// producers run to completion unthrottled while the backlog lands in
/// the readers' receive queues. Once the inflow quiesces, the timed
/// passes measure what actually differs between a flat fleet of
/// one-sample batches and a relay tree: how much tool-side work it takes
/// to decode, skew-correct, and store the same backlog. Both drain through
/// the one pooled `pump_parallel`.
fn drive(set: &mut DaemonSet, want: usize, deadline: Instant) -> Drained {
    let received = |set: &DaemonSet| -> u64 {
        (0..set.len())
            .map(|i| set.conn(i).transport_stats().frames_received)
            .sum()
    };
    let mut last = 0u64;
    let mut quiet = 0u32;
    while quiet < 3 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(20));
        let now = received(set);
        if now == last && now > 0 {
            quiet += 1;
        } else {
            quiet = 0;
            last = now;
        }
    }
    // Rate over what the timed passes drain: clock sync dispatches early
    // samples as a side effect, and those must not pad the numerator.
    let pre = set.samples().len();
    let mut durs: Vec<u64> = Vec::new();
    let mut frames = 0usize;
    while set.samples().len() < want && Instant::now() < deadline {
        let t = Instant::now();
        let got = set.pump_parallel();
        if got > 0 {
            frames += got;
            durs.push(t.elapsed().as_nanos() as u64);
        }
        // Stragglers only: the quiesced backlog drains in the first pass.
        std::thread::sleep(Duration::from_millis(2));
    }
    durs.sort_unstable();
    let p99_ns = if durs.is_empty() {
        0
    } else {
        durs[(durs.len() - 1).min(durs.len() * 99 / 100)]
    };
    Drained {
        samples: set.samples().len() - pre,
        frames,
        drain_ns: durs.iter().sum::<u64>().max(1),
        p99_ns,
    }
}

/// The conservation audit a graceful session must pass at the root:
/// complete coverage over `leaves` nodes, zero labeled loss, and every
/// connection's `announced == received`.
fn conservation_audit(
    label: &str,
    set: &DaemonSet,
    conns: usize,
    leaves: usize,
    cov: &paradyn_tool::Coverage,
    check: &mut impl FnMut(&str, bool),
) {
    check(
        &format!("{label}: coverage is {leaves}/{leaves} ({cov})"),
        cov.nodes_reporting == leaves && cov.nodes_total == leaves,
    );
    check(
        &format!("{label}: zero labeled loss"),
        cov.samples_lost == 0,
    );
    for i in 0..conns {
        let conn = set.conn(i);
        match conn.announced_sent() {
            Some(a) => check(
                &format!("{label}: conn {i} announced == received"),
                a == conn.samples_received(),
            ),
            None => check(&format!("{label}: conn {i} announced its count"), false),
        }
    }
}

fn reap_ok(label: &str, procs: &mut Vec<DaemonProc>, check: &mut impl FnMut(&str, bool)) {
    for p in procs.iter_mut() {
        match p.child.wait() {
            Ok(status) => check(
                &format!("{label}: pdmapd at {} exited cleanly ({status})", p.addr),
                status.success(),
            ),
            Err(e) => check(&format!("{label}: reaping {}: {e}", p.addr), false),
        }
    }
    procs.clear();
}

/// The fleet drill: a flat 16-daemon baseline of one-sample batches, then
/// an F×F relay tree (F relays, F² batching leaves), both
/// conservation-audited, with the tree required to drain ≥ 5× the
/// baseline's samples/sec.
fn fleet_main(opts: &Options) -> ExitCode {
    let f = opts.relay_fanout.unwrap_or(8).max(2);
    let leaves_n = f * f;
    let bin = pdmapd_path();
    let t0 = Instant::now();
    let deadline = t0 + DEADLINE * 4;
    let mut ok = true;
    let mut check = |what: &str, cond: bool| {
        if !cond {
            eprintln!("FAIL: {what}");
            ok = false;
        }
    };
    let leaf_args = |skew_ns: i64, batch: usize| -> Vec<String> {
        [
            "--listen",
            "127.0.0.1:0",
            "--skew-ns",
            &skew_ns.to_string(),
            "--samples",
            &FLEET_SAMPLES.to_string(),
            "--period-ms",
            "1",
            "--batch",
            &batch.to_string(),
            // Short linger: the final flush sends the Goodbye at the natural
            // end of the sample budget, so nothing needs these processes
            // afterwards — and on a small box, 80 lingering pollers would
            // steal the CPU out from under the timed drain.
            "--linger-ms",
            "250",
            "--connect-timeout-ms",
            "60000",
        ]
        .map(str::to_owned)
        .to_vec()
    };

    // ---- Phase A: flat, one sample per batch, direct — the baseline ----
    eprintln!("fleet: flat one-sample-batch baseline over {FLAT_BASELINE_N} daemons");
    let mut flat_procs: Vec<DaemonProc> = (0..FLAT_BASELINE_N)
        .map(|i| {
            let skew = (i as i64 - FLAT_BASELINE_N as i64 / 2) * 10_000_000;
            spawn_proc(&bin, skew, &leaf_args(skew, 1))
        })
        .collect();
    let addrs: Vec<SocketAddr> = flat_procs.iter().map(|p| p.addr).collect();
    let data = Arc::new(DataManager::sharded(
        Namespace::new(),
        "CM Fortran",
        FLAT_BASELINE_N,
    ));
    let mut set = DaemonSet::connect(&addrs, TransportConfig::default(), data);
    if let Err(e) = set.clock_sync(3, DEADLINE) {
        eprintln!("error: baseline sync: {e}");
        kill_all(&mut flat_procs);
        return ExitCode::FAILURE;
    }
    set.pump_parallel(); // warm the drain pool off the timed path

    // The daemons finish their budget, flush the Goodbye, and exit on their
    // own; reaping them *before* the timed drain leaves the box quiet, so
    // the measurement is the tool's drain cost, not scheduler crosstalk
    // from dozens of lingering processes. The baseline drains a frame per
    // sample (each a batch of one) through the same pool as the tree.
    reap_ok("baseline", &mut flat_procs, &mut check);
    let flat = drive(&mut set, FLAT_BASELINE_N * FLEET_SAMPLES, deadline);
    let flat_cov = set.shutdown_all(DEADLINE);
    conservation_audit(
        "baseline",
        &set,
        FLAT_BASELINE_N,
        FLAT_BASELINE_N,
        &flat_cov,
        &mut check,
    );
    check(
        "baseline: every sample arrived",
        set.samples().len() >= FLAT_BASELINE_N * FLEET_SAMPLES,
    );
    drop(set);

    // ---- Phase B: the relay tree ---------------------------------------
    eprintln!("fleet: relay tree, {f} relays x {f} leaves = {leaves_n} leaf processes");
    let mut leaf_procs: Vec<DaemonProc> = (0..leaves_n)
        .map(|i| {
            let skew = (i as i64 - leaves_n as i64 / 2) * 2_000_000;
            spawn_proc(&bin, skew, &leaf_args(skew, 8))
        })
        .collect();
    let mut relay_procs: Vec<DaemonProc> = (0..f)
        .map(|r| {
            let skew = (r as i64 - f as i64 / 2) * 25_000_000;
            let mut args: Vec<String> = [
                "--relay",
                "--listen",
                "127.0.0.1:0",
                "--skew-ns",
                &skew.to_string(),
                // A relay aggregates f leaves at ~1 sample/ms each, so a
                // 40 ms window accumulates well past the batch bound and
                // the upward frames actually fill — the amortization the
                // tree exists to provide.
                "--batch",
                "256",
                "--flush-ms",
                "40",
                "--connect-timeout-ms",
                "60000",
            ]
            .map(str::to_owned)
            .to_vec();
            for leaf in &leaf_procs[r * f..(r + 1) * f] {
                args.extend(["--child".into(), leaf.addr.to_string()]);
            }
            spawn_proc(&bin, skew, &args)
        })
        .collect();
    let relay_addrs: Vec<SocketAddr> = relay_procs.iter().map(|p| p.addr).collect();
    let data = Arc::new(DataManager::sharded(Namespace::new(), "CM Fortran", f));
    let mut set = DaemonSet::connect(&relay_addrs, TransportConfig::default(), data);
    if let Err(e) = set.clock_sync(3, DEADLINE) {
        eprintln!("error: tree sync: {e}");
        kill_all(&mut leaf_procs);
        kill_all(&mut relay_procs);
        return ExitCode::FAILURE;
    }
    // Warm the drain pool while production is still in flight: the first
    // `pump_parallel` of a session spawns the worker threads, and that
    // one-time setup must not be billed to the first timed drain pass.
    // Pump until every relay has told us how many leaves it stands for
    // (the tool's coverage is then tree-aware): a relay reports once its
    // children are synced and their mapping information forwarded, so
    // the timed drain below lands sample batches only.
    while set.coverage().nodes_total < leaves_n && Instant::now() < deadline {
        set.pump_parallel();
        std::thread::sleep(Duration::from_millis(2));
    }
    // Same quiet-box discipline as the baseline: the leaves drain into the
    // relays and exit, the relays flush the aggregate upward and exit, and
    // only then does the timed drain run against the buffered backlog.
    reap_ok("tree-leaves", &mut leaf_procs, &mut check);
    reap_ok("tree-relays", &mut relay_procs, &mut check);
    let tree = drive(&mut set, leaves_n * FLEET_SAMPLES, deadline);
    let tree_cov = set.shutdown_all(DEADLINE);
    conservation_audit("tree", &set, f, leaves_n, &tree_cov, &mut check);
    check(
        "tree: every leaf sample arrived through the relays",
        set.samples().len() >= leaves_n * FLEET_SAMPLES,
    );
    check(
        "tree: batching actually batched (frames < samples / 4)",
        tree.frames < tree.samples / 4,
    );

    // ---- The headline number -------------------------------------------
    // The >=5x claim is scoped to fleets of 16+ leaves (the baseline's
    // width): a 2x2 toy tree has too few samples per batch to amortize
    // anything, and is run for its conservation audits, not its rate.
    let speedup = tree.samples_per_sec() / flat.samples_per_sec();
    if leaves_n >= FLAT_BASELINE_N {
        check(
            &format!("relay fleet drains >=5x the flat baseline's rate (got {speedup:.1}x)"),
            speedup >= 5.0,
        );
    }

    println!(
        r#"{{"fleet":true,"fanout":{f},"relays":{f},"leaf_processes":{leaves_n},"baseline":{},"tree":{},"speedup":{speedup:.2},"elapsed_ms":{},"ok":{ok}}}"#,
        flat.json(FLAT_BASELINE_N, FLAT_BASELINE_N, &flat_cov),
        tree.json(f, leaves_n, &tree_cov),
        t0.elapsed().as_millis(),
    );
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

// ---- Relay failover drill (`--failover`) -------------------------------

/// Tree width for the failover drill: 8 relays × 8 leaves = 64 nodes.
const FO_FANOUT: usize = 8;

/// The relay failover drill: build an F×F tree of streaming leaves,
/// SIGKILL one relay mid-stream (chosen by `--seed`, reproducibly), and
/// demand the tool's supervisor adopt the orphaned subtree — dial the
/// dead relay's leaves from its last topology announcement, seed their
/// replay with exact source-mark watermarks, and heal coverage back to
/// every node with conservation *exact*: zero samples lost, zero
/// duplicated.
fn failover_main(opts: &Options) -> ExitCode {
    let f = opts.relay_fanout.unwrap_or(FO_FANOUT).max(2);
    let leaves_n = f * f;
    let bin = pdmapd_path();
    let t0 = Instant::now();
    let deadline = t0 + DEADLINE * 4;
    let mut ok = true;
    let mut check = |what: &str, cond: bool| {
        if !cond {
            eprintln!("FAIL: {what}");
            ok = false;
        }
    };

    // Long-streaming leaves with a failover budget: on upstream death they
    // pause, await adoption, and replay their ring past the seeded
    // watermark instead of dying with the relay.
    eprintln!("failover: {f} relays x {f} leaves = {leaves_n} streaming leaf processes");
    let leaf_procs: Vec<DaemonProc> = (0..leaves_n)
        .map(|i| {
            let skew = (i as i64 - leaves_n as i64 / 2) * 2_000_000;
            let args: Vec<String> = [
                "--listen",
                "127.0.0.1:0",
                "--skew-ns",
                &skew.to_string(),
                "--samples",
                "100000",
                "--period-ms",
                "1",
                "--batch",
                "8",
                "--linger-ms",
                "60000",
                "--connect-timeout-ms",
                "60000",
                "--failover-ms",
                "20000",
                "--replay-ring",
                "256",
            ]
            .map(str::to_owned)
            .to_vec();
            spawn_proc(&bin, skew, &args)
        })
        .collect();
    let mut relay_procs: Vec<Option<DaemonProc>> = (0..f)
        .map(|r| {
            let skew = (r as i64 - f as i64 / 2) * 25_000_000;
            let mut args: Vec<String> = [
                "--relay",
                "--listen",
                "127.0.0.1:0",
                "--skew-ns",
                &skew.to_string(),
                "--batch",
                "256",
                "--flush-ms",
                "5",
                "--connect-timeout-ms",
                "60000",
            ]
            .map(str::to_owned)
            .to_vec();
            for leaf in &leaf_procs[r * f..(r + 1) * f] {
                args.extend(["--child".into(), leaf.addr.to_string()]);
            }
            Some(spawn_proc(&bin, skew, &args))
        })
        .collect();
    let relay_addrs: Vec<SocketAddr> = relay_procs
        .iter()
        .map(|p| p.as_ref().unwrap().addr)
        .collect();

    let data = Arc::new(DataManager::sharded(Namespace::new(), "CM Fortran", f));
    let mut set = DaemonSet::connect(&relay_addrs, chaos_transport(None), data);
    set.set_policy(SupervisorPolicy {
        degrade_after: Duration::from_millis(200),
        quarantine_after: Duration::from_millis(400),
        retry: ReconnectPolicy {
            max_attempts: 20,
            base_delay: Duration::from_millis(20),
            max_delay: Duration::from_millis(200),
            jitter_seed: 7,
        },
        retry_sync_rounds: 3,
        retry_sync_timeout: Duration::from_secs(2),
        adopt_orphans: true,
        ..SupervisorPolicy::default()
    });

    let fail_early = |procs: &mut Vec<Option<DaemonProc>>, leaves: Vec<DaemonProc>| {
        let mut all: Vec<DaemonProc> = procs.drain(..).flatten().collect();
        kill_all(&mut all);
        let mut leaves = leaves;
        kill_all(&mut leaves);
        ExitCode::FAILURE
    };
    if let Err(e) = set.clock_sync(3, DEADLINE) {
        eprintln!("error: failover sync: {e}");
        return fail_early(&mut relay_procs, leaf_procs);
    }

    // Steady state first: every relay reports its full subtree and the
    // merged stream is moving.
    loop {
        set.pump_parallel();
        let cov = set.coverage();
        if cov.nodes_reporting == leaves_n && cov.nodes_total == leaves_n {
            break;
        }
        if Instant::now() >= deadline {
            eprintln!("error: tree never reached {leaves_n}/{leaves_n} ({})", cov);
            return fail_early(&mut relay_procs, leaf_procs);
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    set.pump_until_samples(leaves_n * 4, DEADLINE);

    // SIGKILL one relay, chosen by the seed — reproducible drills kill
    // reproducible victims. Its 8 leaves are orphaned mid-stream.
    let victim = (opts.seed as usize) % f;
    let mut dead = relay_procs[victim].take().unwrap();
    dead.child.kill().expect("kill relay");
    dead.child.wait().expect("reap relay");
    eprintln!(
        "failover: killed relay {victim} at {} (seed {})",
        dead.addr, opts.seed
    );
    let t_kill = Instant::now();

    // The supervisor quarantines the dark link, reads its last topology
    // announcement, dials the orphans, seeds their replay, and folds
    // coverage back — all visible from here as the set growing by f
    // connections and coverage returning to full.
    let mut recovery_ms: Option<u128> = None;
    while Instant::now() < deadline {
        set.supervise();
        set.pump_parallel();
        let cov = set.coverage();
        if !set.reparents().is_empty() && cov.nodes_reporting == leaves_n {
            recovery_ms = Some(t_kill.elapsed().as_millis());
            break;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    check(
        &format!("fleet healed to {leaves_n}/{leaves_n} ({})", set.coverage()),
        recovery_ms.is_some(),
    );
    check("exactly one re-parent event", set.reparents().len() == 1);
    let rehomed = set.reparents().first().map_or(0, |r| r.subtree.len());
    check(
        &format!("the whole orphaned subtree was re-homed ({rehomed}/{f})"),
        rehomed == f,
    );
    check(
        "adopted leaves joined the session as direct connections",
        set.len() == f + rehomed,
    );

    // The re-homed leaves keep streaming through the new route.
    let before = set.samples().len();
    let settle = Instant::now() + Duration::from_secs(2);
    while Instant::now() < settle {
        set.supervise();
        set.pump_parallel();
        std::thread::sleep(Duration::from_millis(2));
    }
    check(
        "the healed fleet kept streaming",
        set.samples().len() >= before + rehomed,
    );

    // Graceful wind-down: conservation must close *exactly* through the
    // topology change — every sample the fleet sent is in the merged
    // stream or would be labeled lost, and the label reads zero.
    let cov_final = set.shutdown_all(DEADLINE);
    check(
        &format!("final coverage is {leaves_n}/{leaves_n} ({cov_final})"),
        cov_final.nodes_reporting == leaves_n && cov_final.nodes_total == leaves_n,
    );
    check(
        &format!(
            "zero samples lost through the handover ({})",
            cov_final.samples_lost
        ),
        cov_final.samples_lost == 0,
    );
    check("coverage is complete", cov_final.is_complete());
    for i in 0..f {
        if i == victim {
            continue;
        }
        let announced = set.conn(i).announced_sent();
        let received = set.conn(i).samples_received();
        match announced {
            Some(a) => check(&format!("relay {i}: announced == received"), a == received),
            None => check(&format!("relay {i} announced its count"), false),
        }
    }
    // Zero duplicates: every leaf's sample values are unique (0, 1, 2, …),
    // so a replay the seq watermark failed to suppress would repeat a
    // value on that adopted connection.
    let mut replays_suppressed = 0u64;
    for i in 0..set.len() {
        replays_suppressed += set.conn(i).replays_suppressed();
    }
    for i in f..set.len() {
        let cols = set.samples();
        let vals: Vec<u64> = cols
            .daemons()
            .iter()
            .zip(cols.values())
            .filter(|&(&d, _)| d as usize == i)
            .map(|(_, &v)| v as u64)
            .collect();
        let distinct: std::collections::HashSet<u64> = vals.iter().copied().collect();
        check(
            &format!("adopted conn {i}: zero duplicate samples"),
            vals.len() == distinct.len(),
        );
        check(
            &format!("adopted conn {i} announced its count"),
            set.conn(i).announced_sent().is_some(),
        );
    }
    let recovery = set
        .recovery_summary()
        .map_or_else(String::new, |r| r.to_string());

    println!(
        r#"{{"failover":true,"fanout":{f},"relays":{f},"leaves":{leaves_n},"seed":{},"victim":{victim},"recovery_ms":{},"reparents":{},"rehomed":{rehomed},"epoch":{},"replays_suppressed":{replays_suppressed},"samples_lost":{},"coverage_after":"{}/{}","merged_samples":{},"recovery":"{recovery}","elapsed_ms":{},"ok":{ok}}}"#,
        opts.seed,
        recovery_ms.map_or(-1i128, |m| m as i128),
        set.reparents().len(),
        set.epoch(),
        cov_final.samples_lost,
        cov_final.nodes_reporting,
        cov_final.nodes_total,
        set.samples().len(),
        t0.elapsed().as_millis(),
    );

    // The leaves linger after their Goodbye (the failover budget keeps
    // them answering probes); reap the whole fleet hard.
    let mut all: Vec<DaemonProc> = relay_procs.into_iter().flatten().collect();
    all.extend(leaf_procs);
    kill_all(&mut all);
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

// ---- Fleet health drill (`--health`) -----------------------------------

/// Leaf width for the health drill — the same 16+ the fleet baseline
/// uses, so its drain rates are comparable.
const HEALTH_N: usize = 16;
/// Samples each leaf streams in the health drill.
const HEALTH_SAMPLES: usize = 500;
/// Self-sampling period handed to the telemetry session's leaves.
const HEALTH_OBS_PERIOD_MS: u64 = 50;

fn health_leaf_args(skew_ns: i64, obs_trace: Option<&std::path::Path>) -> Vec<String> {
    let mut args: Vec<String> = [
        "--listen",
        "127.0.0.1:0",
        "--skew-ns",
        &skew_ns.to_string(),
        "--samples",
        &HEALTH_SAMPLES.to_string(),
        "--period-ms",
        "1",
        "--batch",
        "8",
        "--linger-ms",
        "400",
        "--connect-timeout-ms",
        "60000",
    ]
    .map(str::to_owned)
    .to_vec();
    if let Some(path) = obs_trace {
        args.extend(["--obs-period".into(), HEALTH_OBS_PERIOD_MS.to_string()]);
        args.extend(["--obs-trace".into(), path.display().to_string()]);
    }
    args
}

/// One flat health-drill session: spawn `HEALTH_N` leaves (self-observing
/// when `obs_dir` is set), sync, let them run their budget out, drain the
/// backlog through the pooled path, and audit conservation. Returns the
/// drained set and its measurements for inspection.
fn health_session(
    label: &str,
    bin: &std::path::Path,
    obs_dir: Option<&std::path::Path>,
    deadline: Instant,
    check: &mut impl FnMut(&str, bool),
) -> Option<(DaemonSet, Vec<SocketAddr>, Drained, paradyn_tool::Coverage)> {
    let mut procs: Vec<DaemonProc> = (0..HEALTH_N)
        .map(|i| {
            let skew = (i as i64 - HEALTH_N as i64 / 2) * 10_000_000;
            let trace = obs_dir.map(|d| d.join(format!("obs_leaf_{i}.txt")));
            spawn_proc(bin, skew, &health_leaf_args(skew, trace.as_deref()))
        })
        .collect();
    let addrs: Vec<SocketAddr> = procs.iter().map(|p| p.addr).collect();
    let data = Arc::new(DataManager::sharded(
        Namespace::new(),
        "CM Fortran",
        HEALTH_N,
    ));
    let mut set = DaemonSet::connect(&addrs, TransportConfig::default(), data);
    if let Err(e) = set.clock_sync(3, DEADLINE) {
        eprintln!("error: {label} sync: {e}");
        kill_all(&mut procs);
        return None;
    }
    set.pump_parallel(); // warm the drain pool off the timed path
    reap_ok(label, &mut procs, check);
    let drained = drive(&mut set, HEALTH_N * HEALTH_SAMPLES, deadline);
    let cov = set.shutdown_all(DEADLINE);
    conservation_audit(label, &set, HEALTH_N, HEALTH_N, &cov, check);
    check(
        &format!("{label}: every application sample arrived"),
        set.merged_samples()
            .iter()
            .filter(|s| {
                !s.focus
                    .as_str()
                    .starts_with(paradyn_tool::selfmap::OBS_FOCUS_PREFIX)
            })
            .count()
            >= HEALTH_N * HEALTH_SAMPLES,
    );
    Some((set, addrs, drained, cov))
}

/// The fleet health drill: a 16-leaf session without telemetry, then the
/// same session with `--obs-period` on — asserting every node's health is
/// visible at the tool, remote `ask_obs` answers from streamed snapshots,
/// the aggregated perturbation stays under 5%, and the per-process span
/// dumps merge into one clock-aligned Chrome trace (`TRACE_fleet.json`).
/// Prints `BENCH_health.json` on stdout.
fn health_main() -> ExitCode {
    use paradyn_tool::selfmap;

    let bin = pdmapd_path();
    let t0 = Instant::now();
    let deadline = t0 + DEADLINE * 4;
    let mut ok = true;
    let mut check = |what: &str, cond: bool| {
        if !cond {
            eprintln!("FAIL: {what}");
            ok = false;
        }
    };
    let obs_dir = std::env::temp_dir().join(format!("pdmap_health_{}", std::process::id()));
    std::fs::create_dir_all(&obs_dir).expect("create obs trace dir");

    // ---- Phase A: telemetry off — the reference drain rate -------------
    eprintln!("health: baseline session over {HEALTH_N} daemons, telemetry off");
    let Some((_, _, baseline, baseline_cov)) =
        health_session("baseline", &bin, None, deadline, &mut check)
    else {
        return ExitCode::FAILURE;
    };

    // ---- Phase B: telemetry on -----------------------------------------
    eprintln!(
        "health: telemetry session, --obs-period {HEALTH_OBS_PERIOD_MS} ms, span dumps in {}",
        obs_dir.display()
    );
    let Some((set, addrs, telemetry, telemetry_cov)) =
        health_session("telemetry", &bin, Some(&obs_dir), deadline, &mut check)
    else {
        return ExitCode::FAILURE;
    };

    // Every node's health is visible at the tool...
    let nodes_reporting = addrs
        .iter()
        .filter(|a| {
            set.fleet_health()
                .node(&selfmap::obs_focus("daemon", &a.to_string()))
                .is_some()
        })
        .count();
    check(
        &format!("every leaf's telemetry reached the tool ({nodes_reporting}/{HEALTH_N})"),
        nodes_reporting == HEALTH_N,
    );
    // ...and queryable through the SAS machinery: each leaf spent time
    // sending frames over TCP, and the tool can ask it so.
    let ns = Namespace::new();
    let ask_obs_nonzero = addrs
        .iter()
        .filter(|a| {
            set.ask_fleet_obs(
                &ns,
                &selfmap::obs_focus("daemon", &a.to_string()),
                "transport/tcp",
                "send",
            )
            .is_some_and(|total_ns| total_ns > 0)
        })
        .count();
    check(
        &format!(
            "remote ask_obs reports nonzero transport send cost ({ask_obs_nonzero}/{HEALTH_N})"
        ),
        ask_obs_nonzero == HEALTH_N,
    );

    // Aggregated perturbation: watching must cost < 5% of what the spans
    // reported — the honest overhead number, immune to CI-box rate noise.
    let perturbation = set.fleet_perturbation();
    check(
        "fleet perturbation aggregated from every node",
        perturbation.is_some_and(|p| p.nodes == HEALTH_N),
    );
    let overhead_pct = perturbation.map_or(100.0, |p| p.overhead_fraction() * 100.0);
    check(
        &format!("telemetry overhead under 5% ({overhead_pct:.4}%)"),
        overhead_pct < 5.0,
    );
    let telemetry_samples = set
        .merged_samples()
        .iter()
        .filter(|s| s.focus.as_str().starts_with(selfmap::OBS_FOCUS_PREFIX))
        .count();
    let telemetry_share_pct = telemetry_samples as f64 * 100.0 / set.samples().len().max(1) as f64;

    // ---- The merged fleet trace ----------------------------------------
    // Tool spans are already on the tool clock; each daemon's dump carries
    // its origin delta, and the measured offset chains it the rest of the
    // way (aligned = start + origin_delta − offset).
    let mut spans_by_proc = vec![pdmap_obs::ProcessSpans {
        pid: 0,
        name: "tool".into(),
        clock_delta_ns: 0,
        spans: pdmap_obs::named_spans(&pdmap_obs::snapshot()),
    }];
    for (i, addr) in addrs.iter().enumerate() {
        let path = obs_dir.join(format!("obs_leaf_{i}.txt"));
        match std::fs::read_to_string(&path) {
            Ok(text) => {
                let dump = pdmap_obs::parse_span_dump(&text);
                let offset = set.conn(i).clock().offset_ns;
                spans_by_proc.push(pdmap_obs::ProcessSpans {
                    pid: (i + 1) as u64,
                    name: format!("daemon:{addr}"),
                    clock_delta_ns: dump.origin_delta_ns - offset,
                    spans: dump.spans,
                });
            }
            Err(e) => check(&format!("span dump for leaf {i}: {e}"), false),
        }
    }
    let trace_processes = spans_by_proc.iter().filter(|p| !p.spans.is_empty()).count();
    check(
        &format!("merged trace has spans from >=2 processes ({trace_processes})"),
        trace_processes >= 2,
    );
    let trace = pdmap_obs::fleet_chrome_trace(&spans_by_proc);
    if let Err(e) = std::fs::write("TRACE_fleet.json", &trace) {
        check(&format!("write TRACE_fleet.json: {e}"), false);
    }
    let _ = std::fs::remove_dir_all(&obs_dir);

    let p = perturbation.unwrap_or_default();
    println!(
        r#"{{"health":true,"daemons":{HEALTH_N},"obs_period_ms":{HEALTH_OBS_PERIOD_MS},"baseline":{},"telemetry":{},"telemetry_samples":{telemetry_samples},"telemetry_share_pct":{telemetry_share_pct:.2},"nodes_reporting":{nodes_reporting},"ask_obs_nonzero":{ask_obs_nonzero},"perturbation":{{"nodes":{},"spans":{},"overhead_ns":{},"reported_ns":{},"overhead_pct":{overhead_pct:.4}}},"trace_processes":{trace_processes},"trace_path":"TRACE_fleet.json","elapsed_ms":{},"ok":{ok}}}"#,
        baseline.json(HEALTH_N, HEALTH_N, &baseline_cov),
        telemetry.json(HEALTH_N, HEALTH_N, &telemetry_cov),
        p.nodes,
        p.spans,
        p.overhead_ns,
        p.reported_ns,
        t0.elapsed().as_millis(),
    );
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
