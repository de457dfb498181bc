//! Multi-process socket-transport acceptance.
//!
//! The headline test (NOT ignored — it runs in the default suite) drives
//! the shipped SRS campaign deck as four separate `vpic-run` OS processes
//! over Unix-domain sockets, `kill -9`s rank 2 mid-run, respawns it with
//! `--rejoin`, and requires the recovered world's `state_fingerprint.txt`
//! to be bit-identical to an unfaulted `--transport local` run of the
//! same deck. Checkpoint writes are throttled so the kill window spans
//! seconds regardless of build profile.
//!
//! The `#[ignore]`d soak throws 16 seeded fault plans — kills, drops,
//! delays, duplicates, corruptions — at a 4-rank campaign running over
//! real sockets (`run_socket_world`): every plan must complete
//! bit-identically to the fault-free reference or degrade gracefully.

use std::path::{Path, PathBuf};
use std::process::{Child, Command, ExitStatus, Stdio};
use std::time::{Duration, Instant};
use vpic::core::crc32::fingerprint32;
use vpic::core::{Momentum, Species};
use vpic::parallel::campaign::{run_campaign, CampaignConfig, CampaignEnd};
use vpic::parallel::{dump_rank_bytes, DistributedSim, DomainSpec};

const WORLD: usize = 4;

fn bin() -> &'static str {
    env!("CARGO_BIN_EXE_vpic-run")
}

fn repo_deck() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("decks/srs_campaign.deck")
}

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("vpic_sockt_{}_{}", name, std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Launch one `vpic-run` seat of a socket world, logging to `log`.
fn spawn_rank(deck: &Path, out: &Path, rank: usize, rejoin: bool, log: &Path) -> Child {
    let logf = std::fs::File::create(log).unwrap();
    let mut cmd = Command::new(bin());
    cmd.arg(deck)
        .arg(out)
        .args(["--rank", &rank.to_string(), "--world", &WORLD.to_string()])
        .stdout(Stdio::from(logf.try_clone().unwrap()))
        .stderr(Stdio::from(logf));
    if rejoin {
        cmd.arg("--rejoin");
    }
    cmd.spawn().unwrap()
}

fn wait_deadline(child: &mut Child, deadline: Duration, what: &str) -> ExitStatus {
    let t0 = Instant::now();
    loop {
        if let Some(st) = child.try_wait().unwrap() {
            return st;
        }
        if t0.elapsed() > deadline {
            let _ = child.kill();
            panic!("{what} still running after {deadline:?}");
        }
        std::thread::sleep(Duration::from_millis(5));
    }
}

fn fingerprint_of(out: &Path) -> String {
    std::fs::read_to_string(out.join("state_fingerprint.txt"))
        .unwrap_or_else(|e| panic!("no state fingerprint in {}: {e}", out.display()))
        .trim()
        .to_string()
}

/// The acceptance scenario from the issue: a 4-rank SRS campaign over
/// SocketTransport with one rank `kill -9`'d mid-run recovers to the
/// exact bits of an unfaulted LocalTransport run.
#[test]
fn kill9_rank_recovers_bit_identical_to_local_transport() {
    let dir = temp_dir("kill9");
    // The shipped deck, stretched to 40 steps with throttled checkpoint
    // writes: each ~6 KB dump takes ~0.3 s, so >2 s of run remain after
    // the step-8 checkpoint lands — a kill window that doesn't depend on
    // how fast the build steps the physics.
    let deck_text = std::fs::read_to_string(repo_deck())
        .unwrap()
        .replace("steps = 12", "steps = 40")
        .replace(
            "checkpoint_interval = 4",
            "checkpoint_interval = 4\ncheckpoint_write_mbps = 0.02",
        );
    let deck = dir.join("srs40.deck");
    std::fs::write(&deck, deck_text).unwrap();

    // Unfaulted baseline over the in-process transport.
    let local_out = dir.join("local");
    let status = Command::new(bin())
        .arg(&deck)
        .arg(&local_out)
        .args(["--transport", "local"])
        .status()
        .unwrap();
    assert!(status.success(), "local baseline run failed");
    let local_fp = fingerprint_of(&local_out);

    // The same deck as four OS processes over Unix-domain sockets.
    let sock_out = dir.join("sock");
    let mut children: Vec<Child> = (0..WORLD)
        .map(|r| {
            spawn_rank(
                &deck,
                &sock_out,
                r,
                false,
                &dir.join(format!("rank{r}.log")),
            )
        })
        .collect();

    // Kill rank 2 the moment its step-8 checkpoint is on disk: the world
    // is mid-flight (32 steps to go) and a common rollback generation
    // exists.
    let ckpt = sock_out
        .join("checkpoints")
        .join("ckpt_00000008_r0002.vpic");
    let t0 = Instant::now();
    while !ckpt.exists() {
        assert!(
            t0.elapsed() < Duration::from_secs(60),
            "rank 2 never wrote its step-8 checkpoint"
        );
        std::thread::sleep(Duration::from_millis(1));
    }
    children[2].kill().unwrap(); // SIGKILL: no cleanup, no goodbye
    let st = children[2].wait().unwrap();
    assert!(!st.success(), "rank 2 was supposed to die by signal");

    // Respawn the seat. The new process bootstraps into the running
    // world, adopts rank 2, and joins the survivors' rollback.
    let mut rejoined = spawn_rank(&deck, &sock_out, 2, true, &dir.join("rank2_rejoin.log"));

    let deadline = Duration::from_secs(120);
    for (r, mut c) in children.into_iter().enumerate() {
        if r == 2 {
            continue; // already reaped
        }
        let st = wait_deadline(&mut c, deadline, &format!("survivor rank {r}"));
        assert!(st.success(), "survivor rank {r} failed");
    }
    let st = wait_deadline(&mut rejoined, deadline, "rejoined rank 2");
    assert!(st.success(), "rejoined rank 2 failed");

    // Every seat recovered once and ran to completion...
    let survivor_log = std::fs::read_to_string(dir.join("rank0.log")).unwrap();
    assert!(
        survivor_log.contains("recovery #1") && survivor_log.contains("completed after 40 steps"),
        "rank 0 did not recover + complete:\n{survivor_log}"
    );
    let rejoin_log = std::fs::read_to_string(dir.join("rank2_rejoin.log")).unwrap();
    assert!(
        rejoin_log.contains("process respawn rejoin") && rejoin_log.contains("completed after"),
        "rank 2 did not rejoin + complete:\n{rejoin_log}"
    );

    // ...and the recovered world's state is the unfaulted world's state,
    // bit for bit.
    assert_eq!(
        fingerprint_of(&sock_out),
        local_fp,
        "socket kill/rejoin run diverged from the local baseline"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------- soak --

const STEPS: u64 = 10;
const SOAK_PLANS: u64 = 16;

fn spec() -> DomainSpec {
    DomainSpec::periodic((8, 4, 4), (0.25, 0.25, 0.25), 0.1, WORLD)
}

fn build_sim(rank: usize) -> DistributedSim {
    let mut sim = DistributedSim::new(spec(), rank, 1);
    let si = sim.add_species(Species::new("e", -1.0, 1.0));
    sim.load_uniform(si, 7, 1.0, 8, Momentum::thermal(0.08));
    sim
}

fn soak_config(dir: &Path) -> CampaignConfig {
    let mut cfg = CampaignConfig::new(STEPS, 3, dir)
        .with_op_timeout(Duration::from_millis(500))
        .with_max_recoveries(5);
    cfg.sentinel.health_interval = 2;
    cfg
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A reproducible mix of every fault kind, identical in spirit to the
/// local transport's soak — the whole point is that a [`FaultPlan`] needs
/// no changes to torment a socket world.
fn random_plan(seed: u64) -> nanompi::FaultPlan {
    let mut s = seed.wrapping_mul(0x2545_f491_4f6c_dd1d).wrapping_add(1);
    let mut plan = nanompi::FaultPlan::new(seed);
    for _ in 0..=(splitmix64(&mut s) % 2) {
        let rank = (splitmix64(&mut s) % WORLD as u64) as usize;
        let step = 1 + splitmix64(&mut s) % (STEPS - 1);
        plan = plan.kill(rank, step);
    }
    if splitmix64(&mut s).is_multiple_of(2) {
        let rank = (splitmix64(&mut s) % WORLD as u64) as usize;
        let p = (splitmix64(&mut s) % 50) as f64 / 1000.0;
        plan = plan.drop_messages(rank, p);
    }
    if splitmix64(&mut s).is_multiple_of(2) {
        let rank = (splitmix64(&mut s) % WORLD as u64) as usize;
        let p = (splitmix64(&mut s) % 100) as f64 / 1000.0;
        let by = Duration::from_millis(1 + splitmix64(&mut s) % 15);
        plan = plan.delay_messages(rank, p, by);
    }
    if splitmix64(&mut s).is_multiple_of(2) {
        let rank = (splitmix64(&mut s) % WORLD as u64) as usize;
        plan = plan.duplicate_message(rank, 1 + splitmix64(&mut s) % 300);
    }
    if splitmix64(&mut s).is_multiple_of(2) {
        let rank = (splitmix64(&mut s) % WORLD as u64) as usize;
        plan = plan.corrupt_message(rank, 1 + splitmix64(&mut s) % 300);
    }
    plan
}

#[test]
#[ignore = "socket fault soak: minutes of wall time; run with cargo test --release -- --ignored"]
fn socket_fault_soak_sixteen_plans() {
    // Fault-free reference fingerprints, computed over sockets too so the
    // comparison isolates the faults, not the transport.
    let ref_dir = temp_dir("soak_ref");
    let (results, _) = nanompi::run_socket_world(
        WORLD,
        nanompi::SocketAddrSpec::unix(ref_dir.join("sock")),
        None,
        |comm| {
            let cfg = soak_config(&ref_dir.join("ckpt"));
            let (sim, outcome) = run_campaign(comm, build_sim(comm.rank()), &cfg).unwrap();
            assert!(matches!(outcome.end, CampaignEnd::Completed));
            fingerprint32(&dump_rank_bytes(&sim, false).unwrap())
        },
    );
    let reference: Vec<u32> = results.into_iter().map(|r| r.unwrap()).collect();
    let _ = std::fs::remove_dir_all(&ref_dir);

    let mut completed = 0usize;
    let mut degraded = 0usize;
    for seed in 0..SOAK_PLANS {
        let plan = random_plan(seed);
        let dir = temp_dir(&format!("soak{seed}"));
        let ckpt_dir = dir.join("ckpt");
        let (results, _) = nanompi::run_socket_world(
            WORLD,
            nanompi::SocketAddrSpec::unix(dir.join("sock")),
            Some(plan),
            |comm| {
                let cfg = soak_config(&ckpt_dir);
                let (sim, outcome) = run_campaign(comm, build_sim(comm.rank()), &cfg)
                    .map_err(|e| format!("unrecoverable: {e}"))?;
                let fp = fingerprint32(&dump_rank_bytes(&sim, false).map_err(|e| e.to_string())?);
                Ok::<_, String>((outcome, fp))
            },
        );

        let mut outcomes = Vec::new();
        for (rank, res) in results.into_iter().enumerate() {
            let res = res.unwrap_or_else(|p| panic!("plan {seed}: rank {rank}: {}", p.message));
            outcomes
                .push(res.unwrap_or_else(|e| panic!("plan {seed}: rank {rank} failed hard: {e}")));
        }
        if outcomes
            .iter()
            .all(|(o, _)| matches!(o.end, CampaignEnd::Completed))
        {
            completed += 1;
            for (rank, (_, fp)) in outcomes.iter().enumerate() {
                assert_eq!(
                    *fp, reference[rank],
                    "plan {seed}: rank {rank} completed but diverged"
                );
            }
        } else {
            degraded += 1;
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
    println!("socket soak: {completed} completed bit-identically, {degraded} degraded gracefully");
    assert!(completed > 0, "soak never completed a single campaign");
}
