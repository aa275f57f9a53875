//! End-to-end recovery under injected faults: the self-healing client
//! (reconnect + at-most-once retry) and the circuit breaker.

use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;
use std::time::Duration;

use zc_giop::SystemExceptionKind;
use zc_orb::{
    ObjectAdapterExt, Orb, OrbError, OrbResult, RetryPolicy, Servant, ServerHandle, ServerRequest,
};
use zc_trace::Telemetry;
use zc_transport::{FaultPlan, FaultSide, SimConfig, SimNetwork};

/// A servant that counts how many times each operation really executed —
/// the ground truth for at-most-once assertions.
struct Counter {
    bumps: AtomicU32,
    gets: AtomicU32,
    naps: AtomicU32,
}

impl Counter {
    fn new() -> Arc<Counter> {
        Arc::new(Counter {
            bumps: AtomicU32::new(0),
            gets: AtomicU32::new(0),
            naps: AtomicU32::new(0),
        })
    }
}

impl Servant for Counter {
    fn repo_id(&self) -> &'static str {
        "IDL:zcorba/Counter:1.0"
    }
    fn dispatch(&self, op: &str, req: &mut ServerRequest<'_>) -> OrbResult<()> {
        match op {
            // Non-idempotent: every execution changes state.
            "bump" => {
                let n = self.bumps.fetch_add(1, Ordering::SeqCst) + 1;
                req.result(&n)
            }
            // Idempotent: safe to execute twice.
            "get" => {
                self.gets.fetch_add(1, Ordering::SeqCst);
                req.result(&self.bumps.load(Ordering::SeqCst))
            }
            // Sleeps `ms` then answers — the timeout guinea pig.
            "nap" => {
                self.naps.fetch_add(1, Ordering::SeqCst);
                let ms: u32 = req.arg()?;
                std::thread::sleep(Duration::from_millis(ms as u64));
                req.result(&ms)
            }
            other => req.bad_operation(other),
        }
    }
}

struct Fixture {
    net: SimNetwork,
    counter: Arc<Counter>,
    _server_orb: Orb,
    server: ServerHandle,
    client: Orb,
    telemetry: Arc<Telemetry>,
}

fn fixture_with(retry: RetryPolicy) -> Fixture {
    let net = SimNetwork::new(SimConfig::zero_copy());
    let telemetry = Telemetry::with_capacity(4096);
    let counter = Counter::new();
    let server_orb = Orb::builder()
        .sim(net.clone())
        .telemetry(Arc::clone(&telemetry))
        .build();
    server_orb
        .adapter()
        .register("counter", Arc::clone(&counter) as Arc<dyn Servant>);
    let server = server_orb.serve(0).unwrap();
    let client = Orb::builder()
        .sim(net.clone())
        .retry(retry)
        .telemetry(Arc::clone(&telemetry))
        .build();
    Fixture {
        net,
        counter,
        _server_orb: server_orb,
        server,
        client,
        telemetry,
    }
}

fn fixture() -> Fixture {
    fixture_with(RetryPolicy::default())
}

fn resolve(f: &Fixture) -> zc_orb::ObjectRef {
    f.client
        .resolve(
            &f.server
                .ior_for("counter", "IDL:zcorba/Counter:1.0")
                .unwrap(),
        )
        .unwrap()
}

#[test]
fn send_failure_reconnects_and_retries_any_operation() {
    let f = fixture();
    let obj = resolve(&f);
    // Warm the connection so the cut hits an established wire.
    let n: u32 = obj.request("bump").invoke().unwrap().result().unwrap();
    assert_eq!(n, 1);

    // Sever the client's wire on its very next sent frame: the send
    // itself fails, so the request provably never reached the server and
    // even a NON-idempotent operation may retry transparently.
    f.net
        .inject_faults(FaultPlan::cut_after(0).on(FaultSide::Client));
    let n: u32 = obj.request("bump").invoke().unwrap().result().unwrap();
    assert_eq!(n, 2);
    assert_eq!(
        f.counter.bumps.load(Ordering::SeqCst),
        2,
        "exactly-one execution per logical call"
    );

    let m = f.telemetry.metrics().snapshot();
    assert!(m.retries >= 1, "expected a retry, metrics: {m:?}");
    assert!(m.reconnects >= 1, "expected a reconnect, metrics: {m:?}");

    // The healed connection keeps working without further ceremony.
    let n: u32 = obj.request("bump").invoke().unwrap().result().unwrap();
    assert_eq!(n, 3);
}

#[test]
fn reply_loss_retries_idempotent_operation_transparently() {
    let f = fixture();
    let obj = resolve(&f);
    let _: u32 = obj.request("bump").invoke().unwrap().result().unwrap();

    // Sever the SERVER's wire on its next sent frame: the request is
    // dispatched, but the reply dies on the way back. `get` is declared
    // idempotent, so the client may transparently re-ask.
    f.net
        .inject_faults(FaultPlan::cut_after(0).on(FaultSide::Server));
    let n: u32 = obj
        .request("get")
        .idempotent()
        .invoke()
        .unwrap()
        .result()
        .unwrap();
    assert_eq!(n, 1, "state observed correctly despite the lost reply");
    assert!(
        f.counter.gets.load(Ordering::SeqCst) >= 1,
        "the idempotent op ran at least once"
    );
    let m = f.telemetry.metrics().snapshot();
    assert!(m.retries >= 1, "expected a retry, metrics: {m:?}");
}

#[test]
fn reply_loss_on_non_idempotent_op_surfaces_comm_failure_maybe() {
    let f = fixture();
    let obj = resolve(&f);
    let _: u32 = obj.request("bump").invoke().unwrap().result().unwrap();
    assert_eq!(f.counter.bumps.load(Ordering::SeqCst), 1);

    // Reply dies after dispatch; `bump` is NOT idempotent, so CORBA's
    // at-most-once rule forbids a retry: the client must see COMM_FAILURE
    // with completion status MAYBE, and the server must NOT run it twice.
    f.net
        .inject_faults(FaultPlan::cut_after(0).on(FaultSide::Server));
    let err = obj
        .request("bump")
        .invoke()
        .expect_err("lost reply on non-idempotent op must fail");
    match err {
        OrbError::System(ex) => {
            assert_eq!(ex.kind, SystemExceptionKind::CommFailure);
            assert_eq!(ex.completed, 2, "completion status MAYBE");
        }
        other => panic!("expected COMM_FAILURE, got {other:?}"),
    }
    assert_eq!(
        f.counter.bumps.load(Ordering::SeqCst),
        2,
        "dispatched once for the failed call — never duplicated"
    );
}

#[test]
fn breaker_opens_fails_fast_and_recovers_after_cooldown() {
    let retry = RetryPolicy {
        max_attempts: 2,
        base_backoff: Duration::from_millis(1),
        max_backoff: Duration::from_millis(2),
        breaker_threshold: 3,
        breaker_cooldown: Duration::from_millis(50),
        ..RetryPolicy::default()
    };
    let f = fixture_with(retry);
    let obj = resolve(&f);
    let _: u32 = obj.request("bump").invoke().unwrap().result().unwrap();

    // Cut the client's wire AND refuse re-dials: every recovery attempt
    // fails, consecutive dial failures mount, the breaker opens.
    f.net.inject_faults(FaultPlan {
        cut_after_frames: Some(0),
        refuse_connects: true,
        ..FaultPlan::default().on(FaultSide::Client)
    });
    let mut transient_seen = false;
    for _ in 0..6 {
        match obj.request("get").idempotent().invoke() {
            Err(OrbError::System(ex)) if ex.kind == SystemExceptionKind::Transient => {
                transient_seen = true;
                break;
            }
            Err(_) => continue,
            Ok(_) => panic!("call cannot succeed while the endpoint refuses connects"),
        }
    }
    assert!(
        transient_seen,
        "breaker must eventually fail fast with TRANSIENT"
    );
    let m = f.telemetry.metrics().snapshot();
    assert!(
        m.breaker_opens >= 1,
        "expected breaker to open, metrics: {m:?}"
    );

    // Heal the network and outwait the cooldown: the half-open trial
    // dials a fresh connection and the endpoint recovers.
    f.net.clear_faults();
    std::thread::sleep(Duration::from_millis(80));
    let n: u32 = obj
        .request("get")
        .idempotent()
        .invoke()
        .unwrap()
        .result()
        .unwrap();
    assert_eq!(n, 1);
}

#[test]
fn timed_out_call_is_never_retried_even_when_idempotent() {
    let f = fixture();
    let obj = resolve(&f);

    // `nap` sleeps past the deadline: the call times out. A timed-out
    // request may be executing right now, so it is NEVER retried — not
    // even when idempotent — and the poisoned connection is quarantined.
    let err = obj
        .request("nap")
        .arg(&300u32)
        .unwrap()
        .idempotent()
        .invoke_timeout(Duration::from_millis(40))
        .expect_err("the nap outlasts the deadline");
    assert!(
        matches!(
            err,
            OrbError::Transport(zc_transport::TransportError::Timeout)
        ),
        "timeouts surface as timeouts, not retries: {err:?}"
    );
    // Give the server time to finish the single dispatch, then verify no
    // duplicate execution ever happened.
    std::thread::sleep(Duration::from_millis(400));
    assert_eq!(
        f.counter.naps.load(Ordering::SeqCst),
        1,
        "a timed-out call must not be re-dispatched"
    );

    // The quarantine removed the poisoned connection from the cache: a
    // fresh resolve dials a healthy connection and calls work again.
    let obj2 = resolve(&f);
    let n: u32 = obj2.request("bump").invoke().unwrap().result().unwrap();
    assert_eq!(n, 1);
}
