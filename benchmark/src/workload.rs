//! The six workloads: their ORB configurations, the servant they call, the
//! seed-derived inputs, and the O(1) and full correctness checks.

use std::sync::{Arc, Mutex};

use zc_buffers::{AlignedBuf, CopyMeter, ZcBytes};
use zc_cdr::{CdrMarshal, OctetSeq, ZcOctetSeq};
use zc_orb::{ObjectAdapterExt, ObjectRef, Orb, OrbResult, Servant, ServerHandle, ServerRequest};
use zc_trace::Telemetry;
use zc_transport::{SimConfig, SimNetwork};
use zc_ttcp::{fill_pattern, verify_pattern};

use crate::spans::{now_ns, Kind, SpanLog};

/// The kernel stack under the ORB.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Stack {
    /// `SimConfig::copying()`: four real copies per traversal.
    SimCopying,
    /// `SimConfig::zero_copy()`: pages handed over by reference.
    SimZeroCopy,
    /// Real TCP over the host's loopback interface.
    LoopbackTcp,
}

/// The operation a workload's closed loop repeats.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Op {
    /// `push_std(u64, sequence<octet>) -> u64`, block staged with `to_vec`.
    PushStd,
    /// `push_zc(u64, sequence<ZC_Octet>) -> u64`.
    PushZc,
    /// `pull_zc(u64) -> sequence<ZC_Octet>`.
    PullZc,
    /// `echo_small(u64, string, sequence<octet>) -> u64`.
    EchoSmall,
}

/// One workload: a fixed ORB configuration and operation.
#[derive(Clone, Copy, Debug)]
pub struct Spec {
    pub name: &'static str,
    pub stack: Stack,
    /// Offer the zero-copy deposit path (`OrbBuilder::zc`).
    pub orb_zc: bool,
    pub op: Op,
    /// Bulk payload per operation; 0 for the small-request workloads.
    pub block_bytes: usize,
    /// Both ORBs share an enabled `Telemetry` handle.
    pub telemetry: bool,
}

pub const SPECS: [Spec; 6] = [
    Spec {
        name: "bulk_std_push_1m",
        stack: Stack::SimCopying,
        orb_zc: false,
        op: Op::PushStd,
        block_bytes: 1 << 20,
        telemetry: false,
    },
    Spec {
        name: "bulk_zc_push_1m",
        stack: Stack::SimZeroCopy,
        orb_zc: true,
        op: Op::PushZc,
        block_bytes: 1 << 20,
        telemetry: false,
    },
    Spec {
        name: "bulk_zc_pull_1m",
        stack: Stack::SimZeroCopy,
        orb_zc: true,
        op: Op::PullZc,
        block_bytes: 1 << 20,
        telemetry: false,
    },
    Spec {
        name: "bulk_zc_push_tcp_64k",
        stack: Stack::LoopbackTcp,
        orb_zc: true,
        op: Op::PushZc,
        block_bytes: 64 << 10,
        telemetry: false,
    },
    Spec {
        name: "rpc_small",
        stack: Stack::SimZeroCopy,
        orb_zc: true,
        op: Op::EchoSmall,
        block_bytes: 0,
        telemetry: false,
    },
    Spec {
        name: "rpc_small_telemetry",
        stack: Stack::SimZeroCopy,
        orb_zc: true,
        op: Op::EchoSmall,
        block_bytes: 0,
        telemetry: true,
    },
];

pub fn spec_named(name: &str) -> Option<Spec> {
    SPECS.into_iter().find(|s| s.name == name)
}

const OBJECT_KEY: &str = "bench-sink";
const REPO_ID: &str = "IDL:zcorba/BenchSink:1.0";

/// Distinct pre-built bulk blocks the loop rotates through (8 MiB at 1 MiB
/// blocks: larger than the caches, so no copy path runs out of L2).
const BULK_ROTATION: usize = 8;
/// Distinct small-argument sets the small-request loop rotates through.
const SMALL_ROTATION: usize = 64;
/// Octets in `echo_small`'s sequence argument.
const SMALL_OCTETS: usize = 64;
/// Untimed, fully verified operations run before and after a timed section.
const VERIFY_OPS: u64 = 32;
/// Verified operations carry ids at or above this, timed ones below it.
pub const VERIFY_ID_BASE: u64 = 1 << 31;

/// One `echo_small` argument set and the part of its checksum that does not
/// depend on the operation index.
pub struct SmallArgs {
    pub text: String,
    pub octets: OctetSeq,
    checksum: u64,
}

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn small_checksum(text: &str, octets: &[u8]) -> u64 {
    fnv1a(text.as_bytes()).wrapping_add(fnv1a(octets).rotate_left(17))
}

/// Seed-derived `echo_small` arguments: a lowercase string of 8 to 24
/// characters and 64 octets.
pub fn small_args(seed: u64, variant: u64) -> SmallArgs {
    let mut raw = [0u8; 32 + SMALL_OCTETS];
    fill_pattern(&mut raw, seed, variant);
    let text_len = 8 + raw[0] as usize % 17;
    let text: String = raw[1..=text_len]
        .iter()
        .map(|b| (b'a' + b % 26) as char)
        .collect();
    let octets = OctetSeq(raw[32..].to_vec());
    let checksum = small_checksum(&text, &octets);
    SmallArgs {
        text,
        octets,
        checksum,
    }
}

fn pattern_buf(seed: u64, index: u64, len: usize) -> AlignedBuf {
    let mut buf = AlignedBuf::zeroed(len);
    fill_pattern(buf.as_mut_slice(), seed, index);
    buf
}

/// A block holding exactly the seed's pattern for `index`.
fn pattern_block(seed: u64, index: u64, len: usize) -> ZcBytes {
    ZcBytes::from_aligned(pattern_buf(seed, index, len))
}

/// A bulk block: the seed's pattern for `index`, with `index` stamped over
/// its first eight bytes so a receiver can tell blocks apart in O(1).
pub fn stamped_block(seed: u64, index: u64, len: usize) -> ZcBytes {
    let mut buf = pattern_buf(seed, index, len);
    buf.as_mut_slice()[..8].copy_from_slice(&index.to_le_bytes());
    ZcBytes::from_aligned(buf)
}

fn stamp_of(block: &[u8]) -> u64 {
    block
        .get(..8)
        .and_then(|b| b.try_into().ok())
        .map_or(u64::MAX, u64::from_le_bytes)
}

/// The sink's O(1) acknowledgement of a pushed block.
fn push_ack(block: &[u8]) -> u64 {
    stamp_of(block).wrapping_add(block.len() as u64)
}

/// The sink's acknowledgement of a fully verified block.
fn verify_ack(seed: u64, index: u64, block: &[u8]) -> u64 {
    if verify_pattern(block, seed, index) {
        block.len() as u64
    } else {
        u64::MAX
    }
}

/// Where the servant records its spans during a traced run.
pub type ServerSpans = Arc<Mutex<SpanLog>>;

/// The object every workload calls.
struct BenchSink {
    seed: u64,
    /// Blocks `pull_zc` hands out (empty unless the workload pulls).
    pull_blocks: Vec<ZcBytes>,
    spans: Option<ServerSpans>,
}

impl BenchSink {
    fn clock(&self) -> u64 {
        if self.spans.is_some() {
            now_ns()
        } else {
            0
        }
    }

    /// One operation: demarshal the per-op id and `args`, run `body`,
    /// marshal its result. In a traced run the three legs become spans.
    fn answer<A, R: CdrMarshal>(
        &self,
        req: &mut ServerRequest<'_>,
        args: impl FnOnce(&mut ServerRequest<'_>) -> OrbResult<A>,
        body: impl FnOnce(u64, A) -> R,
    ) -> OrbResult<()> {
        let enter = self.clock();
        let op: u64 = req.arg()?;
        let a = args(req)?;
        let demarshaled = self.clock();
        let result = body(op, a);
        let reply_start = self.clock();
        req.result(&result)?;
        let exit = self.clock();
        // The servant never waits for its tracer: the harness reads the log
        // only between legs, so the lock is free whenever an operation runs.
        if let Some(mut log) = self.spans.as_ref().and_then(|s| s.try_lock().ok()) {
            log.record(op, Kind::ServantDemarshal, enter, demarshaled);
            log.record(op, Kind::ServantReply, reply_start, exit);
            log.record(op, Kind::Dispatch, enter, exit);
        }
        Ok(())
    }
}

impl Servant for BenchSink {
    fn repo_id(&self) -> &'static str {
        REPO_ID
    }

    fn dispatch(&self, op: &str, req: &mut ServerRequest<'_>) -> OrbResult<()> {
        let seed = self.seed;
        match op {
            "push_std" => self.answer(req, |r| r.arg::<OctetSeq>(), |_, d| push_ack(&d)),
            "push_zc" => self.answer(req, |r| r.arg::<ZcOctetSeq>(), |_, d| push_ack(&d)),
            "pull_zc" => self.answer(
                req,
                |_| Ok(()),
                |i, ()| {
                    let block = &self.pull_blocks[i as usize % self.pull_blocks.len()];
                    ZcOctetSeq::from_zc(block.clone())
                },
            ),
            "echo_small" => self.answer(
                req,
                |r| Ok((r.arg::<String>()?, r.arg::<OctetSeq>()?)),
                |i, (text, octets)| i.wrapping_add(small_checksum(&text, &octets)),
            ),
            "verify_std" => {
                self.answer(req, |r| r.arg::<OctetSeq>(), |i, d| verify_ack(seed, i, &d))
            }
            "verify_zc" => self.answer(
                req,
                |r| r.arg::<ZcOctetSeq>(),
                |i, d| verify_ack(seed, i, &d),
            ),
            // Verified on arrival and echoed, so the caller can verify the
            // reply direction too; a corrupted block comes back empty.
            "verify_echo_zc" => self.answer(
                req,
                |r| r.arg::<ZcOctetSeq>(),
                |i, d| {
                    if verify_pattern(&d, seed, i) {
                        d
                    } else {
                        ZcOctetSeq::with_length(0)
                    }
                },
            ),
            other => req.bad_operation(other),
        }
    }
}

/// A built workload: both ORBs, the served object and the client's inputs.
pub struct Rig {
    pub spec: Spec,
    seed: u64,
    obj: ObjectRef,
    blocks: Vec<ZcBytes>,
    small: Vec<SmallArgs>,
    pub client_orb: Orb,
    pub server_orb: Orb,
    pub meter: Arc<CopyMeter>,
    pub telemetry: Arc<Telemetry>,
    server: ServerHandle,
}

impl Rig {
    /// Build the ORBs, serve the sink, resolve it (connect + handshake),
    /// generate the inputs and run the leading verified operations.
    pub fn set_up(spec: Spec, seed: u64, spans: Option<ServerSpans>) -> Result<Rig, String> {
        let meter = CopyMeter::new_shared();
        let telemetry = if spec.telemetry {
            Telemetry::new_shared()
        } else {
            Telemetry::disabled()
        };
        let net = match spec.stack {
            Stack::SimCopying => Some(SimNetwork::new(SimConfig::copying())),
            Stack::SimZeroCopy => Some(SimNetwork::new(SimConfig::zero_copy())),
            Stack::LoopbackTcp => None,
        };
        let orb = || {
            let b = Orb::builder()
                .zc(spec.orb_zc)
                .meter(Arc::clone(&meter))
                .telemetry(Arc::clone(&telemetry));
            match &net {
                Some(net) => b.sim(net.clone()),
                None => b.tcp(),
            }
            .build()
        };
        let (server_orb, client_orb) = (orb(), orb());

        let bulk_blocks = || {
            (0..BULK_ROTATION as u64)
                .map(|k| stamped_block(seed, k, spec.block_bytes))
                .collect::<Vec<_>>()
        };
        let (blocks, pull_blocks) = match spec.op {
            Op::PushStd | Op::PushZc => (bulk_blocks(), Vec::new()),
            Op::PullZc => (Vec::new(), bulk_blocks()),
            Op::EchoSmall => (Vec::new(), Vec::new()),
        };
        let small = match spec.op {
            Op::EchoSmall => (0..SMALL_ROTATION as u64)
                .map(|k| small_args(seed, k))
                .collect(),
            _ => Vec::new(),
        };

        server_orb.adapter().register(
            OBJECT_KEY,
            Arc::new(BenchSink {
                seed,
                pull_blocks,
                spans,
            }),
        );
        // The acceptor thread, and through it the connection's server
        // thread, start during these calls and inherit the server's CPU.
        let (server, obj) = crate::host::on_server_cpu(|| {
            let server = server_orb.serve(0).map_err(|e| format!("serve: {e}"))?;
            let ior = server
                .ior_for(OBJECT_KEY, REPO_ID)
                .map_err(|e| format!("ior: {e}"))?;
            let obj = client_orb
                .resolve(&ior)
                .map_err(|e| format!("resolve: {e}"))?;
            Ok::<_, String>((server, obj))
        })?;
        if obj.is_zero_copy() != spec.orb_zc {
            return Err(format!(
                "{}: connection negotiated zc={}, workload needs zc={}",
                spec.name,
                obj.is_zero_copy(),
                spec.orb_zc
            ));
        }
        let rig = Rig {
            spec,
            seed,
            obj,
            blocks,
            small,
            client_orb,
            server_orb,
            meter,
            telemetry,
            server,
        };
        rig.verify_round(0)?;
        Ok(rig)
    }

    /// Payload bytes one operation delivers, averaged over the rotation.
    pub fn mean_payload_bytes(&self) -> f64 {
        match self.spec.op {
            Op::EchoSmall => {
                let total: usize = self
                    .small
                    .iter()
                    .map(|a| 8 + a.text.len() + a.octets.len())
                    .sum();
                total as f64 / self.small.len() as f64
            }
            _ => self.spec.block_bytes as f64,
        }
    }

    /// Transport statistics of the client's connection endpoint.
    pub fn client_transport_stats(&self) -> zc_transport::ConnStats {
        self.obj.transport_stats()
    }

    /// One operation of the closed loop, checked in O(1): `Ok(true)` when
    /// the reply carried the expected acknowledgement, length and stamp.
    /// `trace` receives the client-side spans of a traced run.
    pub fn run_op(&self, i: u64, trace: Option<&mut SpanLog>) -> OrbResult<bool> {
        let traced = trace.is_some();
        let mark = || if traced { now_ns() } else { 0 };
        let slot = i as usize % BULK_ROTATION;
        let t0 = mark();
        let request = match self.spec.op {
            Op::PushStd => {
                // The standard client stages its block into an owned
                // sequence, as MICO's does; the per-op stamp rides in it.
                let mut staged = self.blocks[slot].as_slice().to_vec();
                staged[..8].copy_from_slice(&i.to_le_bytes());
                self.obj
                    .request("push_std")
                    .arg(&i)?
                    .arg(&OctetSeq(staged))?
            }
            Op::PushZc => self
                .obj
                .request("push_zc")
                .arg(&i)?
                .arg(&ZcOctetSeq::from_zc(self.blocks[slot].clone()))?,
            Op::PullZc => self.obj.request("pull_zc").arg(&i)?,
            Op::EchoSmall => {
                let a = &self.small[i as usize % SMALL_ROTATION];
                self.obj
                    .request("echo_small")
                    .arg(&i)?
                    .arg(&a.text)?
                    .arg(&a.octets)?
            }
        };
        let t1 = mark();
        let reply = request.invoke()?;
        let t2 = mark();
        let block_bytes = self.spec.block_bytes as u64;
        let ok = match self.spec.op {
            Op::PushStd => reply.result::<u64>()? == i.wrapping_add(block_bytes),
            Op::PushZc => reply.result::<u64>()? == (slot as u64).wrapping_add(block_bytes),
            Op::PullZc => {
                let block: ZcOctetSeq = reply.result()?;
                block.len() as u64 == block_bytes && stamp_of(&block) == slot as u64
            }
            Op::EchoSmall => {
                let a = &self.small[i as usize % SMALL_ROTATION];
                reply.result::<u64>()? == i.wrapping_add(a.checksum)
            }
        };
        if let Some(log) = trace {
            let t3 = now_ns();
            log.record(i, Kind::ClientMarshal, t0, t1);
            log.record(i, Kind::Invoke, t1, t2);
            log.record(i, Kind::ClientDemarshal, t2, t3);
        }
        Ok(ok)
    }

    /// One untimed operation whose whole payload is verified against the
    /// seed's pattern, in every direction the workload moves payload.
    fn verify_op(&self, index: u64) -> OrbResult<bool> {
        let len = self.spec.block_bytes;
        Ok(match self.spec.op {
            Op::PushStd => {
                let mut block = vec![0u8; len];
                fill_pattern(&mut block, self.seed, index);
                let ack: u64 = self
                    .obj
                    .request("verify_std")
                    .arg(&index)?
                    .arg(&OctetSeq(block))?
                    .invoke()?
                    .result()?;
                ack == len as u64
            }
            Op::PushZc => {
                let block = ZcOctetSeq::from_zc(pattern_block(self.seed, index, len));
                let ack: u64 = self
                    .obj
                    .request("verify_zc")
                    .arg(&index)?
                    .arg(&block)?
                    .invoke()?
                    .result()?;
                ack == len as u64
            }
            Op::PullZc => {
                let block = ZcOctetSeq::from_zc(pattern_block(self.seed, index, len));
                let echoed: ZcOctetSeq = self
                    .obj
                    .request("verify_echo_zc")
                    .arg(&index)?
                    .arg(&block)?
                    .invoke()?
                    .result()?;
                echoed.len() == len && verify_pattern(&echoed, self.seed, index)
            }
            // `echo_small` checksums every argument byte on every call.
            Op::EchoSmall => self.run_op(index, None)?,
        })
    }

    /// [`VERIFY_OPS`] fully verified operations; `round` keeps the block
    /// indices of the leading and trailing rounds apart.
    pub fn verify_round(&self, round: u64) -> Result<(), String> {
        for n in 0..VERIFY_OPS {
            let index = (round << 32) | VERIFY_ID_BASE | n;
            match self.verify_op(index) {
                Ok(true) => {}
                Ok(false) => {
                    return Err(format!(
                        "{}: verified op {n} of round {round} returned wrong contents",
                        self.spec.name
                    ))
                }
                Err(e) => return Err(format!("{}: verified op {n} failed: {e}", self.spec.name)),
            }
        }
        Ok(())
    }

    /// Close the client's connection, then stop the server.
    pub fn teardown(self) {
        let Rig {
            obj,
            client_orb,
            server,
            ..
        } = self;
        drop(obj);
        drop(client_orb);
        server.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inputs_repeat_for_a_seed_and_differ_across_seeds() {
        let a = small_args(7, 3);
        let b = small_args(7, 3);
        let c = small_args(8, 3);
        assert_eq!((a.text.as_str(), &a.octets), (b.text.as_str(), &b.octets));
        assert!((8..=24).contains(&a.text.len()));
        assert_eq!(a.octets.len(), SMALL_OCTETS);
        assert!(a.text != c.text || a.octets != c.octets);
        assert_eq!(
            stamped_block(7, 5, 4096).as_slice(),
            stamped_block(7, 5, 4096).as_slice()
        );
        assert_eq!(stamp_of(&stamped_block(7, 5, 4096)), 5);
        assert_ne!(
            stamped_block(7, 5, 4096).as_slice()[8..],
            stamped_block(9, 5, 4096).as_slice()[8..]
        );
    }

    #[test]
    fn acks_tell_a_wrong_block_from_a_right_one() {
        let good = pattern_block(11, 4, 4096);
        assert_eq!(verify_ack(11, 4, &good), 4096);
        assert_eq!(verify_ack(11, 5, &good), u64::MAX);
        assert_eq!(push_ack(&stamped_block(11, 6, 4096)), 6 + 4096);
        assert_eq!(stamp_of(&[1, 2, 3]), u64::MAX);
    }

    #[test]
    fn every_workload_runs_checked_ops_and_records_spans() {
        for spec in SPECS {
            // Small blocks keep the test quick; the paths are the same.
            let spec = Spec {
                block_bytes: spec.block_bytes.min(16 << 10),
                ..spec
            };
            let server_spans = Arc::new(Mutex::new(SpanLog::with_capacity(1024)));
            let rig = Rig::set_up(spec, 42, Some(Arc::clone(&server_spans))).unwrap();
            let mut client_spans = SpanLog::with_capacity(1024);
            for i in 0..10 {
                assert!(rig.run_op(i, Some(&mut client_spans)).unwrap(), "{spec:?}");
            }
            assert!(rig.run_op(10, None).unwrap());
            rig.verify_round(1).unwrap();
            rig.teardown();
            assert_eq!(client_spans.spans().len(), 30);
            let server = server_spans.lock().unwrap();
            let dispatches = server
                .spans()
                .iter()
                .filter(|s| s.kind == Kind::Dispatch && s.op < 10)
                .count();
            assert_eq!(dispatches, 10, "{spec:?}");
        }
    }
}
