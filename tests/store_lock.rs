//! Cross-process store contention: two `modsoc` processes sharing one
//! store directory must serialize writes through the advisory locks and
//! merge journal updates instead of losing them, and two handles racing
//! for one `(journal, unit)` claim must see exactly one winner.

use std::process::Command;
use std::time::Duration;

use modsoc::store::{
    ClaimAction, ClaimOutcome, ClaimRequest, LocalBackend, ResultStore, StoreBackend,
};

fn temp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("modsoc_store_lock_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("mkdir");
    dir
}

fn campaign_spec() -> &'static str {
    r#"{
  "schema": 1,
  "name": "contention",
  "units": [
    {"name": "u1", "soc": "mini", "seed": 1},
    {"name": "u2", "soc": "mini", "seed": 2},
    {"name": "u3", "soc": "mini", "seed": 3}
  ]
}"#
}

#[test]
fn two_campaign_processes_share_one_store_without_corruption() {
    let dir = temp_dir("two_campaigns");
    let spec = dir.join("spec.json");
    std::fs::write(&spec, campaign_spec()).expect("write spec");
    let store_dir = dir.join("store");

    let spawn = || {
        Command::new(env!("CARGO_BIN_EXE_modsoc"))
            .args([
                "campaign",
                spec.to_str().expect("utf8"),
                "--store",
                store_dir.to_str().expect("utf8"),
            ])
            .stdout(std::process::Stdio::null())
            .stderr(std::process::Stdio::null())
            .spawn()
            .expect("spawn campaign")
    };
    // Two writers race over the same units, entries and journal.
    let mut a = spawn();
    let mut b = spawn();
    let sa = a.wait().expect("a exits");
    let sb = b.wait().expect("b exits");
    // Either order of completion is fine; both must succeed (exit 0 —
    // each process sees every unit complete, whether it computed the
    // unit itself or found the other's journal entry).
    assert!(sa.success(), "first campaign: {sa}");
    assert!(sb.success(), "second campaign: {sb}");

    // A third run must find everything journaled and skip all units.
    let third = Command::new(env!("CARGO_BIN_EXE_modsoc"))
        .args([
            "campaign",
            spec.to_str().expect("utf8"),
            "--store",
            store_dir.to_str().expect("utf8"),
        ])
        .output()
        .expect("third run");
    assert!(third.status.success(), "{third:?}");
    let stdout = String::from_utf8_lossy(&third.stdout);
    for unit in ["u1", "u2", "u3"] {
        assert!(stdout.contains(unit), "unit {unit} missing:\n{stdout}");
    }
    assert_eq!(
        stdout.matches("skipped").count(),
        3,
        "all three units must resume from the journal:\n{stdout}"
    );

    // No torn objects, no leaked locks.
    let store = ResultStore::open(&store_dir).expect("reopen");
    let (valid, corrupt) = store.verify_all().expect("sweep");
    assert_eq!(corrupt, 0, "{valid} valid, {corrupt} corrupt");
    assert!(valid > 0, "the campaigns must have written entries");
    let locks: Vec<_> = std::fs::read_dir(store_dir.join("locks"))
        .expect("locks dir")
        .flatten()
        .collect();
    assert!(
        locks.is_empty(),
        "locks must be released after clean exits: {locks:?}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn daemon_and_sidecar_campaign_share_one_store() {
    use modsoc::analysis::serve::http_request;
    use std::io::{BufRead, BufReader};
    use std::time::Duration;

    let dir = temp_dir("daemon_sidecar");
    let store_dir = dir.join("store");
    let spec = dir.join("spec.json");
    std::fs::write(&spec, campaign_spec()).expect("write spec");

    let mut daemon = Command::new(env!("CARGO_BIN_EXE_modsoc"))
        .args([
            "serve",
            "--addr",
            "127.0.0.1:0",
            "--workers",
            "2",
            "--store",
            store_dir.to_str().expect("utf8"),
        ])
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::null())
        .spawn()
        .expect("spawn serve");
    let mut line = String::new();
    BufReader::new(daemon.stdout.take().expect("stdout"))
        .read_line(&mut line)
        .expect("listen line");
    let addr = line
        .trim()
        .rsplit("http://")
        .next()
        .expect("address")
        .to_string();

    // The sidecar campaign writes units u1..u3 while the daemon serves
    // overlapping units (same seeds, so the same content keys) — every
    // entry write for a shared key goes through the same advisory lock.
    let mut campaign = Command::new(env!("CARGO_BIN_EXE_modsoc"))
        .args([
            "campaign",
            spec.to_str().expect("utf8"),
            "--store",
            store_dir.to_str().expect("utf8"),
        ])
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .spawn()
        .expect("spawn campaign");
    for seed in [1u64, 2, 3] {
        let body = format!("{{\"soc\": \"mini\", \"seed\": {seed}, \"timeout_ms\": 20000}}");
        let resp = http_request(
            &addr,
            "POST",
            "/experiment",
            Some(&body),
            Duration::from_secs(60),
        )
        .expect("served experiment");
        assert_eq!(resp.status, 200, "{}", resp.body_text());
    }
    assert!(campaign.wait().expect("campaign exits").success());
    let shutdown =
        http_request(&addr, "POST", "/shutdown", None, Duration::from_secs(10)).expect("shutdown");
    assert_eq!(shutdown.status, 200);
    assert!(daemon.wait().expect("daemon exits").success());

    let store = ResultStore::open(&store_dir).expect("reopen");
    let (valid, corrupt) = store.verify_all().expect("sweep");
    assert_eq!(corrupt, 0, "{valid} valid, {corrupt} corrupt");
    assert!(valid > 0);
    let _ = std::fs::remove_dir_all(&dir);
}

/// One claim call on unit `u1` of journal `j`, as `owner`.
fn claim(
    backend: &LocalBackend,
    owner: &str,
    lease: Duration,
    action: ClaimAction,
) -> ClaimOutcome {
    backend
        .claim(&ClaimRequest {
            journal: "j",
            unit: "u1",
            key: "k",
            owner,
            lease,
            action,
        })
        .expect("claim call")
}

/// Two independent handles on one store directory — the shape of two
/// processes sharing it.
fn two_handles(tag: &str) -> (std::path::PathBuf, LocalBackend, LocalBackend) {
    let dir = temp_dir(tag);
    let store_dir = dir.join("store");
    let (a, _) = LocalBackend::open(&store_dir).expect("open a");
    let (b, _) = LocalBackend::open(&store_dir).expect("open b");
    (dir, a, b)
}

#[test]
fn claim_contention_has_exactly_one_winner() {
    let (dir, a, b) = two_handles("claim_cas");
    let lease = Duration::from_secs(30);
    let oa = claim(&a, "worker-a", lease, ClaimAction::Acquire);
    let ob = claim(&b, "worker-b", lease, ClaimAction::Acquire);
    match (&oa, &ob) {
        (ClaimOutcome::Acquired { .. }, ClaimOutcome::Held { owner }) => {
            assert_eq!(owner, "worker-a");
        }
        other => panic!("expected a to win and b to be held, got {other:?}"),
    }
    // Re-claiming one's own live unit renews rather than conflicts.
    assert_eq!(
        claim(&a, "worker-a", lease, ClaimAction::Acquire),
        ClaimOutcome::Acquired { broke_stale: false }
    );
    // Release by the loser is refused; release by the winner frees it.
    assert_eq!(
        claim(&b, "worker-b", Duration::ZERO, ClaimAction::Release),
        ClaimOutcome::NotOwner
    );
    assert_eq!(
        claim(&a, "worker-a", Duration::ZERO, ClaimAction::Release),
        ClaimOutcome::Released
    );
    assert_eq!(
        claim(&b, "worker-b", lease, ClaimAction::Acquire),
        ClaimOutcome::Acquired { broke_stale: false }
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn expired_lease_of_a_killed_worker_is_broken() {
    let (dir, dead, heir) = two_handles("claim_lease");
    let lease = Duration::from_millis(60);
    // "Kill" a worker: it claims with a short lease and never renews.
    assert!(matches!(
        claim(&dead, "doomed", lease, ClaimAction::Acquire),
        ClaimOutcome::Acquired { .. }
    ));
    // While the lease is live the unit stays held...
    assert!(matches!(
        claim(&heir, "heir", lease, ClaimAction::Acquire),
        ClaimOutcome::Held { .. }
    ));
    // ...and once it expires, the claim is broken and re-offered.
    std::thread::sleep(Duration::from_millis(200));
    assert_eq!(
        claim(&heir, "heir", lease, ClaimAction::Acquire),
        ClaimOutcome::Acquired { broke_stale: true }
    );
    let _ = std::fs::remove_dir_all(&dir);
}
