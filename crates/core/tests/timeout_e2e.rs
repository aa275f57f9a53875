//! Request timeouts: a stalled servant must not hang the client forever,
//! and a timed-out connection must fail fast rather than deliver stale
//! replies.

use std::sync::Arc;
use std::time::Duration;

use zc_cdr::OctetSeq;
use zc_orb::{ObjectAdapterExt, Orb, OrbError, OrbResult, Servant, ServerRequest};
use zc_transport::{SimConfig, SimNetwork, TransportError};

struct Sleepy;
impl Servant for Sleepy {
    fn repo_id(&self) -> &'static str {
        "IDL:to/Sleepy:1.0"
    }
    fn dispatch(&self, op: &str, req: &mut ServerRequest<'_>) -> OrbResult<()> {
        match op {
            "nap" => {
                let ms: u32 = req.arg()?;
                std::thread::sleep(Duration::from_millis(ms as u64));
                req.result(&ms)
            }
            "quick" => {
                let d: OctetSeq = req.arg()?;
                req.result(&d)
            }
            other => req.bad_operation(other),
        }
    }
}

fn fixture() -> (Orb, zc_orb::ServerHandle, Orb) {
    let net = SimNetwork::new(SimConfig::zero_copy());
    let server_orb = Orb::builder().sim(net.clone()).build();
    server_orb.adapter().register("sleepy", Arc::new(Sleepy));
    let server = server_orb.serve(0).unwrap();
    let client = Orb::builder().sim(net).build();
    (server_orb, server, client)
}

#[test]
fn fast_reply_within_deadline_succeeds() {
    let (_s, server, client) = fixture();
    let obj = client
        .resolve(&server.ior_for("sleepy", "IDL:to/Sleepy:1.0").unwrap())
        .unwrap();
    let echoed: OctetSeq = obj
        .request("quick")
        .arg(&OctetSeq(vec![1, 2, 3]))
        .unwrap()
        .invoke_timeout(Duration::from_secs(5))
        .unwrap()
        .result()
        .unwrap();
    assert_eq!(echoed.0, vec![1, 2, 3]);
    // the connection stays healthy after a successful timed call
    let again: u32 = obj
        .request("nap")
        .arg(&1u32)
        .unwrap()
        .invoke()
        .unwrap()
        .result()
        .unwrap();
    assert_eq!(again, 1);
}

#[test]
fn stalled_servant_times_out_and_poisons_the_connection() {
    let (_s, server, client) = fixture();
    let ior = server.ior_for("sleepy", "IDL:to/Sleepy:1.0").unwrap();
    let obj = client.resolve_private(&ior).unwrap();

    let err = obj
        .request("nap")
        .arg(&2_000u32) // servant sleeps 2 s
        .unwrap()
        .invoke_timeout(Duration::from_millis(50))
        .unwrap_err();
    assert_eq!(err, OrbError::Transport(TransportError::Timeout));

    // The poisoned connection (its stream may still hold the stale nap
    // reply) must never carry another request. The proxy abandons it and
    // moves to a fresh connection — nothing was sent this attempt, so
    // that is safe for any operation — and the reply it delivers must
    // correlate with the *new* request, never the stale one.
    let ok: OctetSeq = obj
        .request("quick")
        .arg(&OctetSeq(vec![9]))
        .unwrap()
        .invoke()
        .unwrap()
        .result()
        .unwrap();
    assert_eq!(ok.0, vec![9]);

    // A fresh resolve works fine too.
    let fresh = client.resolve_private(&ior).unwrap();
    let ok: OctetSeq = fresh
        .request("quick")
        .arg(&OctetSeq(vec![9]))
        .unwrap()
        .invoke()
        .unwrap()
        .result()
        .unwrap();
    assert_eq!(ok.0, vec![9]);
}

#[test]
fn locate_refuses_a_poisoned_connection() {
    let (_s, server, client) = fixture();
    let ior = server.ior_for("sleepy", "IDL:to/Sleepy:1.0").unwrap();
    let obj = client.resolve_private(&ior).unwrap();
    let err = obj
        .request("nap")
        .arg(&200u32)
        .unwrap()
        .invoke_timeout(Duration::from_millis(20))
        .unwrap_err();
    assert_eq!(err, OrbError::Transport(TransportError::Timeout));
    // The stale nap reply is still on its way: a LocateRequest on this
    // stream would read it in place of its LocateReply.
    match obj.locate() {
        Err(OrbError::Protocol(msg)) => assert!(msg.contains("poisoned"), "{msg}"),
        other => panic!("locate on a poisoned connection must refuse, got {other:?}"),
    }
}

#[test]
fn timeout_over_real_tcp() {
    let server_orb = Orb::builder().tcp().build();
    server_orb.adapter().register("sleepy", Arc::new(Sleepy));
    let server = server_orb.serve(0).unwrap();
    let client = Orb::builder().tcp().build();
    let ior = server.ior_for("sleepy", "IDL:to/Sleepy:1.0").unwrap();
    let obj = client.resolve_private(&ior).unwrap();
    let err = obj
        .request("nap")
        .arg(&2_000u32)
        .unwrap()
        .invoke_timeout(Duration::from_millis(50))
        .unwrap_err();
    assert_eq!(err, OrbError::Transport(TransportError::Timeout));
    server.shutdown();
}
