//! The client's recovery table, row by row: each failed attempt a fixture
//! can provoke, driven through a real `ObjectRef`, with the result (or the
//! error's kind, minor code and completion status), the servants'
//! execution counts and the recovery counters' deltas pinned. The rows
//! themselves are `retry::decide`; docs/fault-model.md lists them.

use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;
use std::time::Duration;

use zc_giop::{Ior, SystemException, SystemExceptionKind};
use zc_orb::{
    AdmissionConfig, ObjectAdapterExt, ObjectRef, Orb, OrbError, OrbResult, RetryPolicy, Servant,
    ServerHandle, ServerRequest,
};
use zc_trace::Telemetry;
use zc_transport::{FaultPlan, FaultSide, SimConfig, SimNetwork, TransportError};

const REPO_ID: &str = "IDL:zcorba/Ledger:1.0";
const COMPLETED_NO: u32 = 1;
const COMPLETED_MAYBE: u32 = 2;

/// Counts every execution per operation: the at-most-once ground truth.
struct Ledger {
    name: &'static str,
    bumps: AtomicU32,
    gets: AtomicU32,
    naps: AtomicU32,
}

impl Servant for Ledger {
    fn repo_id(&self) -> &'static str {
        REPO_ID
    }
    fn dispatch(&self, op: &str, req: &mut ServerRequest<'_>) -> OrbResult<()> {
        match op {
            // Not idempotent: every execution changes state.
            "bump" => {
                self.bumps.fetch_add(1, Ordering::SeqCst);
                req.result(&self.name.to_string())
            }
            "get" => {
                self.gets.fetch_add(1, Ordering::SeqCst);
                req.result(&self.name.to_string())
            }
            "nap" => {
                self.naps.fetch_add(1, Ordering::SeqCst);
                let ms: u32 = req.arg()?;
                std::thread::sleep(Duration::from_millis(ms as u64));
                req.result(&self.name.to_string())
            }
            other => req.bad_operation(other),
        }
    }
}

impl Ledger {
    /// `(bumps, gets, naps)` executed so far.
    fn executions(&self) -> (u32, u32, u32) {
        (
            self.bumps.load(Ordering::SeqCst),
            self.gets.load(Ordering::SeqCst),
            self.naps.load(Ordering::SeqCst),
        )
    }
}

/// One server per replica (a single profile, or a primary + backup group)
/// and a client, all booking into one telemetry handle so client-side
/// recovery and server-side sheds land in the same counters.
struct Bed {
    net: SimNetwork,
    telemetry: Arc<Telemetry>,
    ledgers: Vec<Arc<Ledger>>,
    servers: Vec<Option<ServerHandle>>,
    _orbs: Vec<Orb>,
    obj: ObjectRef,
}

/// `admissions[i]` configures replica `i`; two entries make a group.
fn table_bed(retry: RetryPolicy, admissions: &[AdmissionConfig]) -> Bed {
    let net = SimNetwork::new(SimConfig::zero_copy());
    let telemetry = Telemetry::with_capacity(4096);
    let (mut ledgers, mut servers, mut orbs, mut iors) = (vec![], vec![], vec![], vec![]);
    for (admission, name) in admissions.iter().zip(["primary", "backup"]) {
        let ledger = Arc::new(Ledger {
            name,
            bumps: AtomicU32::new(0),
            gets: AtomicU32::new(0),
            naps: AtomicU32::new(0),
        });
        let orb = Orb::builder()
            .sim(net.clone())
            .telemetry(Arc::clone(&telemetry))
            .admission(*admission)
            .build();
        orb.adapter()
            .register("ledger", Arc::clone(&ledger) as Arc<dyn Servant>);
        let server = orb.serve(0).unwrap();
        iors.push(server.ior_for("ledger", REPO_ID).unwrap());
        ledgers.push(ledger);
        servers.push(Some(server));
        orbs.push(orb);
    }
    let client = Orb::builder()
        .sim(net.clone())
        .retry(retry)
        .telemetry(Arc::clone(&telemetry))
        .build();
    let obj = client.resolve(&Ior::merge_group(&iors).unwrap()).unwrap();
    orbs.push(client);
    Bed {
        net,
        telemetry,
        ledgers,
        servers,
        _orbs: orbs,
        obj,
    }
}

fn single_bed(retry: RetryPolicy) -> Bed {
    table_bed(retry, &[AdmissionConfig::default()])
}

fn group_bed(retry: RetryPolicy) -> Bed {
    table_bed(retry, &[AdmissionConfig::default(); 2])
}

/// One failure opens a breaker, and it stays open for the whole test.
fn hair_trigger() -> RetryPolicy {
    RetryPolicy {
        breaker_threshold: 1,
        breaker_cooldown: Duration::from_secs(60),
        ..RetryPolicy::default()
    }
}

/// `AdmissionConfig::bounded(1, ..)` keeps its one slot for the control
/// lane, so every data-plane call is shed.
fn shed_all() -> AdmissionConfig {
    AdmissionConfig::bounded(1, u64::MAX)
}

/// Deltas of `[retries, reconnects, failovers, breaker_opens, sheds]`.
type Moves = [u64; 5];

impl Bed {
    fn recovery_counters(&self) -> Moves {
        let m = self.telemetry.metrics().snapshot();
        [
            m.retries,
            m.reconnects,
            m.failovers,
            m.breaker_opens,
            m.sheds,
        ]
    }

    /// Run `call`, returning its result and how far the counters moved.
    fn measure_row<T>(&self, call: impl FnOnce(&ObjectRef) -> T) -> (T, Moves) {
        let before = self.recovery_counters();
        let out = call(&self.obj);
        let after = self.recovery_counters();
        (out, std::array::from_fn(|i| after[i] - before[i]))
    }

    fn cut_next_frame(&self, side: FaultSide) {
        self.net.inject_faults(FaultPlan::cut_after(0).on(side));
    }
}

fn table_get(obj: &ObjectRef) -> OrbResult<String> {
    obj.request("get").idempotent().invoke()?.result()
}

fn table_bump(obj: &ObjectRef) -> OrbResult<String> {
    obj.request("bump").invoke()?.result()
}

fn table_nap(obj: &ObjectRef, ms: u32, deadline_ms: u64) -> OrbResult<String> {
    obj.request("nap")
        .arg(&ms)?
        .idempotent()
        .invoke_timeout(Duration::from_millis(deadline_ms))?
        .result()
}

fn assert_system<T: std::fmt::Debug>(
    got: OrbResult<T>,
    kind: SystemExceptionKind,
    minor: u32,
    completed: u32,
) {
    match got {
        Err(OrbError::System(SystemException {
            kind: k,
            minor: m,
            completed: c,
        })) => assert_eq!((k, m, c), (kind, minor, completed)),
        other => panic!("expected {kind:?} minor {minor} completed {completed}, got {other:?}"),
    }
}

fn assert_shed<T: std::fmt::Debug>(got: OrbResult<T>) {
    match got {
        Err(OrbError::System(ex)) => assert!(zc_orb::admission::is_shed(&ex), "{ex:?}"),
        other => panic!("expected a shed, got {other:?}"),
    }
}

/// Open the active profile's breaker under a hair trigger: a lost reply on
/// a non-idempotent call is breaker evidence.
fn open_primary_breaker(b: &Bed) {
    b.cut_next_frame(FaultSide::Server);
    let (lost, moves) = b.measure_row(table_bump);
    assert_system(lost, SystemExceptionKind::CommFailure, 1, COMPLETED_MAYBE);
    assert_eq!(moves, [0, 0, 0, 1, 0]);
    b.net.clear_faults();
}

#[test]
fn answered_call_moves_nothing() {
    let b = single_bed(RetryPolicy::default());
    let (got, moves) = b.measure_row(table_get);
    assert_eq!(got.unwrap(), "primary");
    assert_eq!(b.ledgers[0].executions(), (0, 1, 0));
    assert_eq!(moves, [0; 5]);
}

#[test]
fn breaker_open_on_a_single_profile_fails_fast_transient_no() {
    let b = single_bed(hair_trigger());
    open_primary_breaker(&b);
    let (got, moves) = b.measure_row(table_get);
    assert_system(got, SystemExceptionKind::Transient, 1, COMPLETED_NO);
    assert_eq!(
        b.ledgers[0].executions(),
        (1, 0, 0),
        "nothing reached the server"
    );
    assert_eq!(moves, [0; 5]);
}

#[test]
fn breaker_open_on_a_group_rotates_within_the_attempt() {
    let b = group_bed(hair_trigger());
    open_primary_breaker(&b);
    let (got, moves) = b.measure_row(table_get);
    assert_eq!(got.unwrap(), "backup");
    assert_eq!(b.ledgers[0].executions(), (1, 0, 0));
    assert_eq!(b.ledgers[1].executions(), (0, 1, 0));
    assert_eq!(moves, [0, 1, 1, 0, 0], "one rotation, no retry");
}

#[test]
fn poisoned_connection_recovers_any_operation() {
    let b = single_bed(RetryPolicy::default());
    let timed_out = table_nap(&b.obj, 200, 20);
    assert_eq!(timed_out, Err(OrbError::Transport(TransportError::Timeout)));
    // Nothing is sent on the poisoned connection: even a non-idempotent
    // call moves to a fresh one.
    let (got, moves) = b.measure_row(table_bump);
    assert_eq!(got.unwrap(), "primary");
    assert_eq!(b.ledgers[0].executions(), (1, 0, 1));
    assert_eq!(moves, [1, 1, 0, 0, 0]);
}

#[test]
fn send_closed_recovers_a_non_idempotent_call() {
    let b = single_bed(RetryPolicy::default());
    table_bump(&b.obj).unwrap();
    b.cut_next_frame(FaultSide::Client);
    let (got, moves) = b.measure_row(table_bump);
    assert_eq!(got.unwrap(), "primary");
    assert_eq!(
        b.ledgers[0].executions(),
        (2, 0, 0),
        "one execution per call"
    );
    assert_eq!(moves, [1, 1, 0, 0, 0]);
}

#[test]
fn timeout_is_never_retried_even_when_idempotent() {
    let b = single_bed(hair_trigger());
    let (got, moves) = b.measure_row(|obj| table_nap(obj, 200, 20));
    assert_eq!(got, Err(OrbError::Transport(TransportError::Timeout)));
    assert_eq!(moves, [0, 0, 0, 1, 0], "breaker failure, no retry");
    // Let the one dispatch finish: it must never have been re-sent.
    std::thread::sleep(Duration::from_millis(300));
    assert_eq!(b.ledgers[0].executions(), (0, 0, 1));
}

#[test]
fn shed_on_a_single_profile_surfaces_after_feeding_the_breaker() {
    let b = table_bed(hair_trigger(), &[shed_all()]);
    let (got, moves) = b.measure_row(table_get);
    assert_shed(got);
    assert_eq!(
        b.ledgers[0].executions(),
        (0, 0, 0),
        "refused before dispatch"
    );
    assert_eq!(moves, [0, 0, 0, 1, 1]);
}

#[test]
fn shed_on_a_group_rotates_to_the_backup() {
    let b = table_bed(
        RetryPolicy::default(),
        &[shed_all(), AdmissionConfig::default()],
    );
    let (got, moves) = b.measure_row(table_get);
    assert_eq!(got.unwrap(), "backup");
    assert_eq!(b.ledgers[0].executions(), (0, 0, 0));
    assert_eq!(b.ledgers[1].executions(), (0, 1, 0));
    assert_eq!(moves, [0, 1, 1, 0, 1]);
}

#[test]
fn shed_everywhere_rotates_until_attempts_run_out() {
    let b = table_bed(RetryPolicy::default(), &[shed_all(), shed_all()]);
    let (got, moves) = b.measure_row(table_get);
    assert_shed(got);
    // Three attempts: primary, backup, primary again; two rotations.
    assert_eq!(moves, [0, 2, 2, 0, 3]);
    assert_eq!(b.ledgers[0].executions(), (0, 0, 0));
    assert_eq!(b.ledgers[1].executions(), (0, 0, 0));
}

#[test]
fn bad_operation_is_an_answer() {
    let b = single_bed(hair_trigger());
    let (got, moves) = b.measure_row(|obj| obj.request("nosuch").idempotent().invoke().map(|_| ()));
    assert_system(got, SystemExceptionKind::BadOperation, 0, COMPLETED_NO);
    assert_eq!(moves, [0; 5], "no retry, no breaker evidence");
    assert_eq!(b.ledgers[0].executions(), (0, 0, 0));
}

#[test]
fn lost_reply_retries_an_idempotent_call() {
    let b = single_bed(hair_trigger());
    table_get(&b.obj).unwrap();
    b.cut_next_frame(FaultSide::Server);
    let (got, moves) = b.measure_row(table_get);
    assert_eq!(got.unwrap(), "primary");
    assert_eq!(
        b.ledgers[0].executions(),
        (0, 3, 0),
        "the lost reply's call ran twice"
    );
    assert_eq!(
        moves,
        [1, 1, 0, 0, 0],
        "no breaker evidence when idempotent"
    );
}

#[test]
fn lost_reply_on_a_non_idempotent_call_is_comm_failure_maybe() {
    let b = single_bed(hair_trigger());
    table_get(&b.obj).unwrap();
    b.cut_next_frame(FaultSide::Server);
    let (got, moves) = b.measure_row(table_bump);
    assert_system(got, SystemExceptionKind::CommFailure, 1, COMPLETED_MAYBE);
    assert_eq!(
        b.ledgers[0].executions(),
        (1, 1, 0),
        "executed once, never twice"
    );
    assert_eq!(moves, [0, 0, 0, 1, 0]);
}

#[test]
fn lost_reply_on_a_group_with_the_primary_gone_fails_over() {
    let mut b = group_bed(RetryPolicy::default());
    table_get(&b.obj).unwrap();
    b.servers[0].take().unwrap().shutdown();
    b.cut_next_frame(FaultSide::Server);
    // The re-dial to the primary is refused, so the retry rotates.
    let (got, moves) = b.measure_row(table_get);
    assert_eq!(got.unwrap(), "backup");
    assert_eq!(b.ledgers[0].executions(), (0, 2, 0));
    assert_eq!(b.ledgers[1].executions(), (0, 1, 0));
    assert_eq!(moves, [1, 1, 1, 0, 0]);
}
