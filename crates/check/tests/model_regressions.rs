//! Model-checker regression suite: the production scenarios must hold
//! under a bounded exploration, the intentionally-broken doubles must
//! be caught, and a caught failure must replay deterministically from
//! both its decision trace and its sampling seed.

use medledger_check::explore::Checker;
use medledger_check::scenarios;

fn small_budget() -> Checker {
    Checker {
        max_dfs: 300,
        max_samples: 150,
        max_decisions: 40,
        seed: 0x1CDE_2019,
    }
}

#[test]
fn production_scenarios_hold() {
    let checker = small_budget();
    for sc in scenarios::all() {
        // Under the seeded wrong-ordering build, rt-quiescence is
        // SUPPOSED to fail; tests/mutant.rs asserts exactly that.
        if cfg!(feature = "order-mutant") && sc.name == "rt-quiescence" {
            continue;
        }
        let outcome = checker.check(&sc);
        assert!(
            outcome.failure.is_none(),
            "scenario `{}` failed:\n{}",
            sc.name,
            outcome.failure.expect("checked some")
        );
        assert!(outcome.executions > 0);
    }
}

#[test]
fn small_scenarios_are_exhausted() {
    let checker = small_budget();
    for name in ["oneshot-send-take", "oneshot-drop-vs-poll"] {
        let sc = scenarios::by_name(name).expect("known scenario");
        let outcome = checker.check(&sc);
        assert!(
            outcome.exhausted,
            "`{name}` should exhaust its bounded schedule space \
             ({} executions)",
            outcome.executions
        );
    }
}

#[test]
fn broken_notify_is_caught_and_trace_replays() {
    let sc = scenarios::by_name("broken-notify").expect("broken double");
    let checker = small_budget();
    let outcome = checker.check(&sc);
    let failure = outcome
        .failure
        .expect("notify-before-wait bug must be found");
    assert!(
        failure.message.contains("deadlock"),
        "expected a deadlock, got: {}",
        failure.message
    );
    // The decision trace replays to the same failure, twice.
    for _ in 0..2 {
        let again = checker
            .replay_trace(&sc, &failure.trace)
            .expect("trace must reproduce the failure");
        assert_eq!(again.message, failure.message);
        assert_eq!(again.trace, failure.trace);
    }
}

#[test]
fn broken_notify_seed_replay_is_deterministic() {
    let sc = scenarios::by_name("broken-notify").expect("broken double");
    // DFS disabled: force the sampling path so the failure carries a
    // seed.
    let checker = Checker {
        max_dfs: 0,
        max_samples: 400,
        max_decisions: 40,
        seed: 0xFEED_BEEF,
    };
    let outcome = checker.check(&sc);
    let failure = outcome.failure.expect("sampling must find the bug");
    let seed = failure.seed.expect("sampling failures carry a seed");
    let a = checker.replay_seed(&sc, seed).expect("seed reproduces");
    let b = checker
        .replay_seed(&sc, seed)
        .expect("seed reproduces again");
    assert_eq!(a.message, b.message);
    assert_eq!(a.trace, b.trace);
    assert_eq!(a.message, failure.message);
}

#[test]
fn broken_channel_recv_drop_race_is_caught() {
    let sc = scenarios::by_name("broken-channel").expect("broken double");
    let checker = small_budget();
    let outcome = checker.check(&sc);
    let failure = outcome
        .failure
        .expect("receiver-drop waker loss must be found");
    assert!(
        failure.message.contains("deadlock"),
        "expected a deadlock, got: {}",
        failure.message
    );
    let again = checker
        .replay_trace(&sc, &failure.trace)
        .expect("trace must reproduce the failure");
    assert_eq!(again.message, failure.message);
}

#[test]
fn distinct_schedule_counting_is_plausible() {
    let sc = scenarios::by_name("mpsc-handoff").expect("known scenario");
    let outcome = small_budget().check(&sc);
    assert!(
        outcome.distinct > 50,
        "capacity-1 handoff has a rich schedule space, saw {}",
        outcome.distinct
    );
    assert!(outcome.distinct <= outcome.executions);
}
