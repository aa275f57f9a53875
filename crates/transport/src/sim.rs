//! The in-process simulated network stack.
//!
//! [`SimNetwork`] is a process-local "cluster interconnect": listeners bind
//! ports, connectors dial them, and each connection is a pair of frame
//! rings (the wire), one per direction, that the sender feeds a batch of
//! frames at a time — one lock, at most one wake-up — and the receiver
//! drains as the frames arrive. What makes it a *simulation of the paper's
//! kernel stacks* — rather than a mere message queue — is that the
//! per-layer work is **actually performed** on real memory, through the
//! copy meter.
//!
//! Figure 1's conventional path is one pipeline of four copies —
//! `write()` user→kernel, driver fragmentation, defragmentation, `read()`
//! kernel→user — and the zero-copy stack is the same pipeline with copies
//! taken out. So the stack is a table, one row per ([`StackMode`], [`Lane`])
//! pair (`Plan::for_lane`), walked by one sender (`SimConn::transmit`):
//!
//! | row | sender copies | frames | hand-offs | descriptors per hand-off | receiver |
//! |---|---|---|---|---|---|
//! | copying, either lane | [`CopyLayer::SocketSend`], [`CopyLayer::KernelFrag`] | MTU | `WINDOW_FRAMES` a time | one: the window | [`CopyLayer::KernelDefrag`] into a one-window socket buffer, [`CopyLayer::SocketRecv`] out of it |
//! | zero-copy control | [`CopyLayer::SocketSend`] | one | one | one | [`CopyLayer::SocketRecv`] |
//! | zero-copy data | none: frames reference the caller's pages | `PAGE_SIZE` | one | one: the block | speculation; [`CopyLayer::DepositFallback`] on a miss |
//!
//! A window crosses as one [`Frame`] descriptor, as with segmentation
//! offload: one queue element, while copies run and counters count per wire
//! frame (a header each). While a per-frame fault is armed ([`FaultPlan`]),
//! a window goes out one descriptor per wire frame.
//!
//! The copying row is four full traversals of the payload, exactly the
//! per-byte overhead the paper attacks — and no fifth: every buffer is a
//! pooled page run and the wire's frame queues keep their storage, so in
//! steady state the stack does not touch the heap. It **cuts through**, as
//! a kernel's does: a window's segments leave while `write()` is still
//! copying the next, and the receiving CPU defragments and `read()`s window
//! *n* while the sending CPU copies window *n + 1* — both socket buffers
//! hold one window, so a window is still in cache for its second copy.
//!
//! Every row but the last is received by one streaming receiver
//! (`SimConn::recv_streaming`), which lands fragments as they come off the
//! wire. The zero-copy data row is the speculative-defragmentation path
//! \[10\] and holds a block until it is whole (`SimConn::recv_in_place`):
//! the receiver **speculates** that the fragments landed in place, and with
//! probability `zc_success_prob` the speculation holds and the block is
//! rejoined without touching a byte ([`zc_buffers::ZcBytes::join_contiguous`]).
//! A miss falls back to the conventional copy — the probabilistic fallback
//! of the real driver.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Condvar, MutexGuard, PoisonError};
use std::time::Instant;

use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use zc_buffers::{AlignedBuf, CopyLayer, CopyMeter, PagePool, PooledBuf, ZcBytes, PAGE_SIZE};

use crate::frame::{Frame, Lane, MTU_PAYLOAD};
use crate::stats::{ConnStats, StatsCell, TransportField};
use crate::{Acceptor, Connection, TResult, TransportCtx, TransportError, WireViolation};

/// Which kernel stack the simulated network runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StackMode {
    /// Conventional stack: four metered copies per payload traversal.
    Copying,
    /// Zero-copy stack with speculative defragmentation.
    ZeroCopy,
}

/// Configuration of a simulated network.
#[derive(Debug, Clone, Copy)]
pub struct SimConfig {
    /// Stack mode for every connection on this network.
    pub mode: StackMode,
    /// Payload bytes per frame in copying mode (standard Ethernet: 1460).
    pub mtu_payload: usize,
    /// Probability that a zero-copy receive speculation succeeds.
    pub zc_success_prob: f64,
    /// RNG seed for speculation outcomes (deterministic experiments).
    pub seed: u64,
}

impl SimConfig {
    /// Conventional copying stack at standard MTU.
    pub fn copying() -> SimConfig {
        SimConfig {
            mode: StackMode::Copying,
            // zc-audit: allow(wire-const) — deterministic RNG seed; "ZC" digits are branding, not a protocol id
            seed: 0x5A43_0001,
            ..SimConfig::zero_copy()
        }
    }

    /// Zero-copy stack with perfectly successful speculation (the
    /// homogeneous-cluster common case the paper optimizes for).
    pub fn zero_copy() -> SimConfig {
        SimConfig {
            mode: StackMode::ZeroCopy,
            mtu_payload: MTU_PAYLOAD,
            zc_success_prob: 1.0,
            // zc-audit: allow(wire-const) — deterministic RNG seed; "ZC" digits are branding, not a protocol id
            seed: 0x5A43_0002,
        }
    }

    /// Zero-copy stack with the given speculation success probability
    /// (ablation A3).
    pub fn zero_copy_with_speculation(p: f64) -> SimConfig {
        assert!((0.0..=1.0).contains(&p), "probability out of range");
        SimConfig {
            zc_success_prob: p,
            ..SimConfig::zero_copy()
        }
    }
}

/// Which endpoints of the network a [`FaultPlan`] applies to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FaultSide {
    /// Every endpoint, connecting or accepting.
    #[default]
    Both,
    /// Only endpoints created by [`SimNetwork::connect`] (client halves).
    Client,
    /// Only endpoints handed out by accept (server halves).
    Server,
}

/// A deterministic, seeded fault-injection plan.
///
/// Installed network-wide with [`SimNetwork::inject_faults`]; live
/// connections pick the new plan up at their next send or receive. Frame
/// indices (`cut_after_frames`, `corrupt_frame`, …) count *per connection*
/// from the moment that connection first sees the plan, so "cut after 0
/// frames" means "the very next frame this endpoint sends".
///
/// The deterministic single-frame faults (cut / corrupt / truncate /
/// delay) share a network-wide budget of [`FaultPlan::max_trips`] firings
/// per injected plan — so a plan that kills one connection does not also
/// kill the replacement connection a recovering client dials. The
/// probabilistic faults (`drop_prob`, `spec_miss_prob`) and
/// `refuse_connects` stay live until the plan is replaced.
///
/// A frame drop is modeled as the wire dying (the sender's ring closes
/// and the peer observes [`TransportError::Closed`] after draining): a
/// silently missing fragment would leave the peer blocked forever inside a
/// block, which is exactly what a real TCP connection turns into a reset
/// once retransmission gives up.
#[derive(Debug, Clone, Copy)]
pub struct FaultPlan {
    /// Which endpoints the plan applies to.
    pub side: FaultSide,
    /// Sever the wire once an endpoint has sent this many further frames.
    pub cut_after_frames: Option<u64>,
    /// Flip bits in the payload of the Nth frame sent.
    pub corrupt_frame: Option<u64>,
    /// Truncate the payload of the Nth frame sent (announced block length
    /// is left intact, so the receiver sees a short fragment stream).
    pub truncate_frame: Option<u64>,
    /// Hold the Nth frame and deliver it after its successor (reordering).
    pub delay_frame: Option<u64>,
    /// Probability that any sent frame kills the connection instead.
    pub drop_prob: f64,
    /// Probability that a zero-copy receive speculation is forced to miss.
    pub spec_miss_prob: f64,
    /// Refuse new [`SimNetwork::connect`] attempts.
    pub refuse_connects: bool,
    /// Budget for the deterministic single-frame faults above.
    pub max_trips: u32,
}

impl Default for FaultPlan {
    fn default() -> FaultPlan {
        FaultPlan {
            side: FaultSide::Both,
            cut_after_frames: None,
            corrupt_frame: None,
            truncate_frame: None,
            delay_frame: None,
            drop_prob: 0.0,
            spec_miss_prob: 0.0,
            refuse_connects: false,
            max_trips: 1,
        }
    }
}

impl FaultPlan {
    /// Plan that severs the wire after `n` further frames.
    pub fn cut_after(n: u64) -> FaultPlan {
        FaultPlan {
            cut_after_frames: Some(n),
            ..FaultPlan::default()
        }
    }

    /// Plan that forces every zero-copy receive speculation to miss with
    /// probability `p`.
    pub fn spec_miss(p: f64) -> FaultPlan {
        assert!((0.0..=1.0).contains(&p), "probability out of range");
        FaultPlan {
            spec_miss_prob: p,
            ..FaultPlan::default()
        }
    }

    /// Plan that kills connections with per-frame probability `p`.
    pub fn drop(p: f64) -> FaultPlan {
        assert!((0.0..=1.0).contains(&p), "probability out of range");
        FaultPlan {
            drop_prob: p,
            ..FaultPlan::default()
        }
    }

    /// Plan that refuses all new connection attempts.
    pub fn refuse() -> FaultPlan {
        FaultPlan {
            refuse_connects: true,
            ..FaultPlan::default()
        }
    }

    /// Restrict the plan to one side of the network.
    pub fn on(mut self, side: FaultSide) -> FaultPlan {
        self.side = side;
        self
    }

    fn applies_to(&self, is_client: bool) -> bool {
        match self.side {
            FaultSide::Both => true,
            FaultSide::Client => is_client,
            FaultSide::Server => !is_client,
        }
    }

    /// Whether a fault that addresses single frames is armed for this end.
    fn arms_frame_faults(&self, is_client: bool) -> bool {
        self.applies_to(is_client)
            && (self.cut_after_frames.is_some()
                || self.corrupt_frame.is_some()
                || self.truncate_frame.is_some()
                || self.delay_frame.is_some()
                || self.drop_prob > 0.0)
    }
}

/// Live fault state shared by every connection of one [`SimNetwork`].
#[derive(Default)]
struct FaultState {
    plan: Mutex<FaultPlan>,
    generation: AtomicU64,
    trips: AtomicU64,
}

struct NetInner {
    /// Each listener's accept queue: the server halves of dialed
    /// connections, waiting for `accept` to give them a context.
    listeners: Mutex<HashMap<u16, mpsc::Sender<Half>>>,
    next_port: AtomicU64,
    next_conn_id: AtomicU64,
    config: SimConfig,
    faults: Arc<FaultState>,
}

/// A process-local simulated network. Clone handles freely; all clones
/// address the same port space.
#[derive(Clone)]
pub struct SimNetwork {
    inner: Arc<NetInner>,
}

impl SimNetwork {
    /// Create a network running the given stack configuration.
    pub fn new(config: SimConfig) -> SimNetwork {
        SimNetwork {
            inner: Arc::new(NetInner {
                listeners: Mutex::new(HashMap::new()),
                next_port: AtomicU64::new(40_000),
                next_conn_id: AtomicU64::new(1),
                config,
                faults: Arc::new(FaultState::default()),
            }),
        }
    }

    /// The network's stack configuration.
    pub fn config(&self) -> SimConfig {
        self.inner.config
    }

    /// Install `plan` as the network's live fault plan. Takes effect for
    /// in-flight connections at their next send or receive; the
    /// deterministic single-frame faults get a fresh trip budget.
    pub fn inject_faults(&self, plan: FaultPlan) {
        let f = &self.inner.faults;
        *f.plan.lock() = plan;
        f.trips.store(0, Ordering::Release);
        f.generation.fetch_add(1, Ordering::Release);
    }

    /// Remove every injected fault (equivalent to injecting the default
    /// all-quiet plan).
    pub fn clear_faults(&self) {
        self.inject_faults(FaultPlan::default());
    }

    /// How many deterministic single-frame faults the current plan has
    /// fired so far.
    pub fn faults_tripped(&self) -> u64 {
        self.inner
            .faults
            .trips
            .load(Ordering::Acquire)
            .min(self.inner.faults.plan.lock().max_trips as u64)
    }

    /// Bind a listener. `port == 0` allocates an ephemeral port.
    pub fn listen(&self, port: u16, ctx: TransportCtx) -> TResult<SimListener> {
        let port = if port == 0 {
            self.inner.next_port.fetch_add(1, Ordering::Relaxed) as u16
        } else {
            port
        };
        let (tx, rx) = mpsc::channel();
        {
            let mut map = self.inner.listeners.lock();
            if map.contains_key(&port) {
                return Err(TransportError::AddrInUse(port));
            }
            map.insert(port, tx);
        }
        Ok(SimListener {
            // zc-audit: allow(cheap-clone) — SimNet is an Arc handle over shared state
            network: self.clone(),
            port,
            rx,
            ctx,
        })
    }

    /// Dial a listener on this network.
    pub fn connect(&self, port: u16, ctx: TransportCtx) -> TResult<Box<dyn Connection>> {
        {
            let plan = *self.inner.faults.plan.lock();
            if plan.refuse_connects && plan.applies_to(true) {
                return Err(TransportError::ConnectionRefused(port));
            }
        }
        let listener_tx = {
            let map = self.inner.listeners.lock();
            map.get(&port).cloned()
        }
        .ok_or(TransportError::ConnectionRefused(port))?;

        let conn_id = self.inner.next_conn_id.fetch_add(1, Ordering::Relaxed);
        // Two unidirectional frame rings form the full-duplex wire.
        let (c2s, s2c) = (Arc::<Wire>::default(), Arc::<Wire>::default());
        let half = |is_client: bool, tx: Arc<Wire>, rx: Arc<Wire>| Half {
            // zc-audit: allow(control-plane) — peer name, built once per connection
            peer: format!("sim:{port}#{}{conn_id}", if is_client { 'c' } else { 's' }),
            cfg: self.inner.config,
            wires: Wires { tx, rx },
            seed_salt: conn_id * 2 + u64::from(!is_client),
            is_client,
            faults: Arc::clone(&self.inner.faults),
        };
        listener_tx
            .send(half(false, Arc::clone(&s2c), Arc::clone(&c2s)))
            .map_err(|_| TransportError::ConnectionRefused(port))?;
        Ok(Box::new(half(true, c2s, s2c).attach(ctx)))
    }
}

impl std::fmt::Debug for SimNetwork {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "SimNetwork(mode: {:?}, listeners: {})",
            self.inner.config.mode,
            self.inner.listeners.lock().len()
        )
    }
}

/// One end of a dialed connection, before it has a context: the dialer
/// attaches its own, the listener that accepts the other end attaches its
/// own, so each end's copies and counters land on its own side's meter,
/// pool and telemetry.
struct Half {
    peer: String,
    cfg: SimConfig,
    wires: Wires,
    seed_salt: u64,
    is_client: bool,
    faults: Arc<FaultState>,
}

/// One end's two wires. Dropping the end, accepted or not, closes both:
/// the peer drains what was delivered, then sees `Closed`.
struct Wires {
    tx: Arc<Wire>,
    rx: Arc<Wire>,
}

impl Drop for Wires {
    fn drop(&mut self) {
        self.tx.close();
        self.rx.close();
    }
}

impl Half {
    /// The connection end, with `ctx` installed.
    fn attach(self, ctx: TransportCtx) -> SimConn {
        let (seed, salt) = (self.cfg.seed, self.seed_salt);
        let active_plan = *self.faults.plan.lock();
        SimConn {
            peer: self.peer,
            cfg: self.cfg,
            stats: StatsCell::with_telemetry(ctx.telemetry.transport_mirror()),
            ctx,
            wires: self.wires,
            staged: Lanes::default(),
            inbox: Lanes::default(),
            next_block_id: 0,
            rng: StdRng::seed_from_u64(seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15)),
            recv_timeout: None,
            trace_conn: zc_trace::next_conn_id(),
            is_client: self.is_client,
            fault_gen: self.faults.generation.load(Ordering::Acquire),
            active_plan,
            faults: self.faults,
            frames_since_fault: 0,
            wire_cut: false,
            delayed: None,
            fault_rng: StdRng::seed_from_u64(seed ^ salt.rotate_left(17) ^ 0xFA17_FA17_FA17_FA17),
        }
    }
}

/// A bound simulated listener.
pub struct SimListener {
    network: SimNetwork,
    port: u16,
    rx: mpsc::Receiver<Half>,
    ctx: TransportCtx,
}

impl Acceptor for SimListener {
    fn accept(&self) -> TResult<Box<dyn Connection>> {
        let half = self.rx.recv().map_err(|_| TransportError::Closed)?;
        // zc-audit: allow(cheap-clone) — TransportCtx is a trio of Arc handles (meter + pool + telemetry)
        Ok(Box::new(half.attach(self.ctx.clone())))
    }

    fn endpoint(&self) -> (String, u16) {
        ("sim".to_string(), self.port)
    }
}

impl Drop for SimListener {
    fn drop(&mut self) {
        self.network.inner.listeners.lock().remove(&self.port);
    }
}

/// Hard cap on the announced length of one simulated block: a corrupt
/// total must error out, never size an allocation.
pub const MAX_SIM_BLOCK_BYTES: u64 = 1 << 30;

/// Frames the copying stack copies and hands to the peer at a time
/// (44 × 1460 B ≈ 64 KiB, the window a socket buffer would hold). Small
/// enough that a window is still in cache for its second copy and that the
/// peer's CPU starts on a 1 MiB block while 15/16 of it are still to be
/// sent; large enough that the hand-off — one lock, at most one wake-up —
/// is noise. Swept on `bulk_std_push_1m` (2-CPU host, 4 s runs, two seeds,
/// goodput in Gbit/s): 8 frames 13.4 / 14.8 (cpu +5 %: more hand-offs);
/// 22: 14.1 / 14.9; 44: 13.3 / 13.8; 88: 13.5 / 13.1; the whole block at
/// once: 9.7 / 9.8, where store-and-forward was (10.0 / 10.8). 22 against 44
/// over eight alternating pairs: goodput indistinguishable (3 of 8), 44
/// cheaper in CPU (7 of 8, −4 %). A constant, not a `SimConfig` field:
/// nothing has a reason to want a second value.
const WINDOW_FRAMES: usize = 44;

/// One row of the stack table: how a ([`StackMode`], [`Lane`]) pair moves a
/// block. The receiver undoes the sender's copies in reverse —
/// `KernelDefrag` for `KernelFrag`, `SocketRecv` for `SocketSend` — and a
/// row with neither sends the caller's own pages, which the receiver
/// speculates on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Plan {
    /// `write()` copies the block into socket buffers
    /// ([`CopyLayer::SocketSend`]), and `read()` copies it out
    /// ([`CopyLayer::SocketRecv`]).
    socket_copy: bool,
    /// The driver copies every fragment behind its header
    /// ([`CopyLayer::KernelFrag`]), and the receiver defragments them into
    /// a one-window socket buffer ([`CopyLayer::KernelDefrag`]).
    frag_copy: bool,
    /// Payload bytes per frame.
    unit: usize,
    /// Bytes copied and handed over at a time.
    window: usize,
}

impl Plan {
    /// The row for `lane` on `cfg`'s stack.
    fn for_lane(cfg: &SimConfig, lane: Lane) -> Plan {
        let mtu = cfg.mtu_payload;
        let (socket_copy, frag_copy, unit, window) = match (cfg.mode, lane) {
            (StackMode::Copying, _) => (true, true, mtu, WINDOW_FRAMES.saturating_mul(mtu)),
            // Through the socket, but past the fragmentation machinery.
            (StackMode::ZeroCopy, Lane::Control) => (true, false, usize::MAX, usize::MAX),
            (StackMode::ZeroCopy, Lane::Data) => (false, false, PAGE_SIZE, usize::MAX),
        };
        Plan {
            socket_copy,
            frag_copy,
            unit,
            window,
        }
    }
}

/// Validate a block's wire-announced length where it enters: above the cap
/// it is a protocol error, never an allocation size (wire-taint invariant).
fn checked_block_len(announced: u64, block_id: u64) -> TResult<usize> {
    if announced > MAX_SIM_BLOCK_BYTES {
        return Err(WireViolation::BlockTooLarge {
            block: block_id,
            announced,
            cap: MAX_SIM_BLOCK_BYTES,
        }
        .into());
    }
    Ok(announced as usize)
}

/// Bounds-check one fragment's deposit window (`offset .. offset + len`)
/// within a buffer of `total` bytes, erroring instead of panicking on a
/// hostile offset: overflow and overrun both become protocol errors.
fn checked_span(offset: u64, len: usize, total: usize) -> TResult<std::ops::Range<usize>> {
    usize::try_from(offset)
        .ok()
        .and_then(|off| off.checked_add(len).map(|end| off..end))
        .filter(|span| span.end <= total)
        .ok_or(TransportError::Protocol(
            WireViolation::FragmentOutsideBuffer { offset, len, total },
        ))
}

/// A frame queue per lane.
#[derive(Default)]
struct Lanes {
    control: VecDeque<Frame>,
    data: VecDeque<Frame>,
}

impl Lanes {
    fn of(&mut self, lane: Lane) -> &mut VecDeque<Frame> {
        match lane {
            Lane::Control => &mut self.control,
            Lane::Data => &mut self.data,
        }
    }
}

/// Move every frame of `from` to the back of `to`: a swap of the two queues
/// when `to` is empty — a few words, however many frames change hands, and
/// both keep their storage.
fn hand_over(from: &mut VecDeque<Frame>, to: &mut VecDeque<Frame>) {
    if to.is_empty() {
        std::mem::swap(from, to);
    } else {
        to.append(from);
    }
}

/// One direction of the simulated wire: the receive ring of the peer's
/// NIC, one frame queue per lane. The sender pushes a batch of frame
/// descriptors — the one of a copied block's window, of a whole zero-copy
/// block, of a small control message — under one lock and with at most
/// one wake-up; the receiver takes everything that has arrived for the
/// lane it wants in one swap. A batch is a *delivery* unit only: faults,
/// frame indices and counters stay per wire frame, and a block may span
/// any number of batches.
///
/// Nothing is allocated per batch: a lane's frames sit in three queues —
/// the sender's staging queue, the ring's and the receiver's inbox — that
/// trade places as batches are handed over, and each keeps the storage it
/// has grown to, so in steady state the wire never touches the allocator.
#[derive(Default)]
struct Wire {
    /// `std`'s mutex: the condition variable waits on its guard.
    state: std::sync::Mutex<WireState>,
    arrived: Condvar,
}

#[derive(Default)]
struct WireState {
    /// Frames on the wire.
    lanes: Lanes,
    /// Either end is gone (dropped, or its outgoing wire cut by a fault).
    /// What was delivered before can still be drained.
    closed: bool,
    /// The lane the receiver is parked on, waiting for frames.
    parked: Option<Lane>,
}

impl Wire {
    /// A panic while the lock is held can only come from the allocator
    /// growing a queue, which leaves the queue as it was: the state is
    /// valid at every step, so a poisoned lock is simply taken over.
    fn state(&self) -> MutexGuard<'_, WireState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Put the `staged` frames of each lane on the wire, leaving `staged`
    /// empty: one lock, and one wake-up if the receiver is parked on a
    /// lane the batch feeds. A batch that finds its lane's queue drained —
    /// every batch of a receiver that keeps up — is swapped in.
    fn push_batch(&self, staged: &mut Lanes) -> TResult<()> {
        let mut st = self.state();
        if st.closed {
            drop(st);
            *staged = Lanes::default();
            return Err(TransportError::Closed);
        }
        let mut wake = false;
        for lane in [Lane::Control, Lane::Data] {
            let staged = staged.of(lane);
            if staged.is_empty() {
                continue;
            }
            wake |= st.parked == Some(lane);
            hand_over(staged, st.lanes.of(lane));
        }
        if wake {
            st.parked = None;
        }
        drop(st);
        if wake {
            self.arrived.notify_one();
        }
        Ok(())
    }

    /// Move every frame that has arrived on `lane` to the back of `inbox`
    /// (a swap, when `inbox` is empty), parking until there is one, the
    /// wire closes or `deadline` passes. Frames delivered before a close
    /// are still handed out.
    fn drain_into(
        &self,
        lane: Lane,
        inbox: &mut VecDeque<Frame>,
        deadline: Option<Instant>,
    ) -> TResult<()> {
        let mut st = self.state();
        loop {
            let queue = st.lanes.of(lane);
            if !queue.is_empty() {
                hand_over(queue, inbox);
                return Ok(());
            }
            if st.closed {
                return Err(TransportError::Closed);
            }
            st.parked = Some(lane);
            st = match deadline {
                None => self
                    .arrived
                    .wait(st)
                    .unwrap_or_else(PoisonError::into_inner),
                Some(deadline) => {
                    let now = Instant::now();
                    if now >= deadline {
                        st.parked = None;
                        return Err(TransportError::Timeout);
                    }
                    self.arrived
                        .wait_timeout(st, deadline - now)
                        .unwrap_or_else(PoisonError::into_inner)
                        .0
                }
            };
        }
    }

    /// Close the wire and wake a parked receiver so that it sees it.
    fn close(&self) {
        let mut st = self.state();
        st.closed = true;
        let wake = st.parked.take().is_some();
        drop(st);
        if wake {
            self.arrived.notify_one();
        }
    }
}

/// What every frame of one outgoing block carries besides its fragment.
#[derive(Clone, Copy)]
struct Outgoing {
    lane: Lane,
    block_id: u64,
    total_len: u64,
    sent_ns: u64,
}

/// The block being received on a lane: what its first fragment announced,
/// and how much of it has come off the wire so far.
struct Incoming {
    lane: Lane,
    /// The lane's row; its unit says how many wire frames a descriptor is.
    plan: Plan,
    deadline: Option<Instant>,
    block_id: u64,
    total: usize,
    got: usize,
    /// Wire frames claimed so far.
    frames: usize,
    /// Descriptors claimed so far: the block's share of the inbox.
    queued: usize,
    /// Put-on-wire stamp of the first fragment (`0`: untraced sender).
    sent_ns: u64,
}

impl Incoming {
    fn is_whole(&self) -> bool {
        self.queued > 0 && self.got >= self.total
    }

    /// Count `f` in as the block's next fragments; a frame that cannot
    /// belong to it is a protocol error, named.
    fn claim(&mut self, f: &Frame) -> TResult<()> {
        let block_id = self.block_id;
        if f.block_id != block_id {
            return Err(WireViolation::InterleavedBlock {
                expected: block_id,
                got: f.block_id,
            }
            .into());
        }
        if self.queued > 0 && f.payload.is_empty() {
            // Progress guarantee: a peer streaming empty continuation
            // fragments must not pin the receiver in its loop forever.
            return Err(WireViolation::EmptyContinuation { block: block_id }.into());
        }
        self.got = self.got.saturating_add(f.payload.len());
        if self.got > self.total {
            return Err(WireViolation::FragmentOverrun {
                block: block_id,
                announced: self.total,
                got: self.got,
            }
            .into());
        }
        self.frames = self.frames.saturating_add(f.wire_frames(self.plan.unit));
        self.queued += 1;
        Ok(())
    }
}

/// The receiving end of one block, landing its fragments in order into the
/// user buffer. Where the row defragments with a copy they go through a
/// socket buffer — a window's worth of kernel memory, like the sender's —
/// that `read()` empties into the user buffer while the bytes are still in
/// cache; elsewhere each frame is itself the kernel's buffer and is read
/// out as it lands.
struct Reassembly {
    /// `None` on a row without a defragmentation copy.
    socket_buf: Option<PooledBuf>,
    user_buf: PooledBuf,
    /// The row's fragment unit: a descriptor lands one fragment at a time.
    unit: usize,
    /// Bytes `..read` of the block are in `user_buf`, `read..in_order` in
    /// `socket_buf`.
    read: usize,
    in_order: usize,
    /// Fragments that arrived ahead of their turn (a `delay_frame` fault
    /// reorders): they wait, as frames, until the gap before them closes.
    early: Vec<Frame>,
}

impl Reassembly {
    fn new(pool: &PagePool, total: usize, plan: Plan) -> Reassembly {
        let socket_buf = plan.frag_copy.then(|| {
            let room = plan.window.min(total).max(1);
            let mut buf = pool.acquire(room);
            buf.set_len(room);
            buf
        });
        let mut user_buf = pool.acquire(total.max(1));
        user_buf.set_len(total);
        Reassembly {
            socket_buf,
            user_buf,
            unit: plan.unit.max(1),
            read: 0,
            in_order: 0,
            early: Vec::new(),
        }
    }

    /// Land `frame`'s fragments, one by one, if they are the next in order
    /// — and then any early frame they make room for — or queue it. `copy`
    /// is the row's landing copy: defragmentation into the socket buffer,
    /// or straight into the user buffer.
    fn land_fragment(
        &mut self,
        frame: Frame,
        copy: &mut dyn FnMut(&mut [u8], &[u8]),
        meter: &CopyMeter,
    ) -> TResult<()> {
        let mut next = Some(frame);
        while let Some(f) = next.take() {
            let len = f.payload.len();
            let span = checked_span(f.offset, len, self.user_buf.len())?;
            if span.start != self.in_order {
                self.early.push(f);
                break;
            }
            let full = |s: &PooledBuf| span.end - self.read > s.len();
            if self.socket_buf.as_ref().is_some_and(full) {
                self.read_out(meter)?;
            }
            let (dst, at) = match &mut self.socket_buf {
                Some(socket_buf) => (socket_buf.as_mut_slice(), self.read),
                None => (self.user_buf.as_mut_slice(), 0),
            };
            // A frame larger than the whole socket buffer has no place in it.
            let room = checked_span((span.start - at) as u64, len, dst.len())?;
            let frags = f.payload.as_slice().chunks(self.unit);
            for (to, from) in dst[room].chunks_mut(self.unit).zip(frags) {
                copy(to, from);
            }
            self.in_order = span.end;
            if self.socket_buf.is_none() {
                self.read = span.end;
            }
            next = self
                .early
                .iter()
                .position(|e| e.offset == span.end as u64)
                .map(|i| self.early.swap_remove(i));
        }
        Ok(())
    }

    /// `read()`: copy what the socket buffer holds kernel→user, into the
    /// aligned application buffer, and empty it.
    fn read_out(&mut self, meter: &CopyMeter) -> TResult<()> {
        let Some(socket_buf) = &self.socket_buf else {
            return Ok(());
        };
        let held = self.in_order.saturating_sub(self.read);
        let unread = checked_span(self.read as u64, held, self.user_buf.len())?;
        if held > 0 {
            self.read = unread.end;
            meter.copy(
                CopyLayer::SocketRecv,
                &mut self.user_buf.as_mut_slice()[unread],
                &socket_buf.as_slice()[..held],
            );
        }
        Ok(())
    }

    /// The block whose every fragment has arrived, if they tile it.
    fn into_block(self, block: &Incoming) -> TResult<ZcBytes> {
        if self.read != self.user_buf.len() {
            return Err(WireViolation::FragmentsOverlap {
                block: block.block_id,
                missing: self.user_buf.len() - self.read,
                total: self.user_buf.len(),
            }
            .into());
        }
        Ok(self.user_buf.freeze())
    }
}

/// What a send hands the stack: a control message's gather list, or a data
/// block's pages. Which one picks the lane, and so the row.
#[derive(Clone, Copy)]
enum Outbound<'a> {
    Control(&'a [&'a [u8]]),
    Data(&'a ZcBytes),
}

/// Cursor over a gather list: the bytes `write()` has not taken yet.
struct Gather<'a> {
    head: &'a [u8],
    rest: std::slice::Iter<'a, &'a [u8]>,
}

impl Gather<'_> {
    /// `write()`: fill `dst` with the list's next bytes, copied across the
    /// user/kernel boundary.
    fn copy_to(&mut self, meter: &CopyMeter, mut dst: &mut [u8]) {
        meter.copy_run(CopyLayer::SocketSend, |copy| {
            while !dst.is_empty() {
                if self.head.is_empty() {
                    self.head = self.rest.next().expect("gather list holds its total");
                    continue;
                }
                let n = self.head.len().min(dst.len());
                let (src, head) = self.head.split_at(n);
                let (now, later) = std::mem::take(&mut dst).split_at_mut(n);
                copy(now, src);
                self.head = head;
                dst = later;
            }
        })
    }
}

/// One endpoint of a simulated connection.
pub struct SimConn {
    peer: String,
    cfg: SimConfig,
    ctx: TransportCtx,
    wires: Wires,
    /// Frames run through the fault plan and waiting for the next
    /// hand-off. Empty between sends.
    staged: Lanes,
    /// Frames taken off the wire that no block has claimed yet.
    inbox: Lanes,
    next_block_id: u64,
    rng: StdRng,
    stats: Arc<StatsCell>,
    recv_timeout: Option<std::time::Duration>,
    trace_conn: u64,
    is_client: bool,
    faults: Arc<FaultState>,
    active_plan: FaultPlan,
    fault_gen: u64,
    /// Frames sent since this endpoint picked up the current plan.
    frames_since_fault: u64,
    wire_cut: bool,
    /// A frame held back by `FaultPlan::delay_frame`, delivered after its
    /// successor.
    delayed: Option<Frame>,
    /// Separate RNG stream for fault draws so injecting faults never
    /// perturbs the speculation outcomes of `rng`.
    fault_rng: StdRng,
}

impl SimConn {
    /// Pick up a newly injected plan; frame counting restarts with it.
    fn refresh_fault_plan(&mut self) {
        let gen = self.faults.generation.load(Ordering::Acquire);
        if gen != self.fault_gen {
            self.fault_gen = gen;
            self.active_plan = *self.faults.plan.lock();
            self.frames_since_fault = 0;
        }
    }

    /// Consume one shot of the plan's deterministic-fault budget.
    fn take_trip(&self) -> bool {
        let max = self.active_plan.max_trips as u64;
        self.faults.trips.fetch_add(1, Ordering::AcqRel) < max
    }

    /// Start a block of `total_len` bytes on `lane`.
    fn begin_block(&mut self, lane: Lane, total_len: usize) -> TResult<Outgoing> {
        if self.wire_cut {
            return Err(TransportError::Closed);
        }
        self.refresh_fault_plan();
        let block_id = self.next_block_id;
        self.next_block_id += 1;
        // Trace-clock stamp for the whole block; `0` (untraced) when
        // telemetry is disabled so the hot path never reads the clock.
        let sent_ns = if self.ctx.telemetry.is_enabled() {
            zc_trace::now_ns()
        } else {
            0
        };
        Ok(Outgoing {
            lane,
            block_id,
            total_len: total_len as u64,
            sent_ns,
        })
    }

    /// Send one block down its lane's row of the stack table, a window at
    /// a time: `write()` copies the window's bytes into a socket buffer —
    /// on the row without that copy, the window is the block's own pages —
    /// then the driver copies each fragment behind its header, and the
    /// window goes on the wire, one descriptor for all its frames, before
    /// the next window is touched: the peer takes window *n* off the wire
    /// while this end copies window *n + 1*.
    fn transmit(&mut self, out: Outbound<'_>) -> TResult<()> {
        let (lane, head, rest) = match out {
            Outbound::Control(parts) => (Lane::Control, &[][..], parts),
            Outbound::Data(block) => (Lane::Data, block.as_slice(), &[][..]),
        };
        let plan = Plan::for_lane(&self.cfg, lane);
        let total = head.len() + rest.iter().map(|p| p.len()).sum::<usize>();
        self.stats.add(TransportField::BytesSent, total as u64);
        let block = self.begin_block(lane, total)?;
        let mut parts = Gather {
            head,
            rest: rest.iter(),
        };
        // A descriptor per window, or per wire frame while one can be hit.
        let per_frame = self.active_plan.arms_frame_faults(self.is_client);
        let step = if per_frame { plan.unit } else { plan.window };
        // An empty block is one empty frame.
        for at in (0..total.max(1)).step_by(plan.window) {
            let len = (total - at).min(plan.window);
            let window = match out {
                Outbound::Data(pages) if !plan.socket_copy => pages.slice(at..at + len),
                _ => {
                    let mut socket_buf = self.ctx.pool.acquire(len.max(1));
                    socket_buf.set_len(len);
                    parts.copy_to(&self.ctx.meter, socket_buf.as_mut_slice());
                    socket_buf.freeze()
                }
            };
            let window = if plan.frag_copy {
                self.fragment(&window, plan.unit)
            } else {
                window
            };
            for frag in (0..len.max(1)).step_by(step) {
                let payload = window.slice(frag..len.min(frag.saturating_add(step)));
                self.stage_frame(block, at + frag, payload)?;
            }
            self.put_on_wire()?;
        }
        Ok(())
    }

    /// Driver fragmentation: header insertion forces a copy of every
    /// fragment. One pass lays a window's fragments out in a pooled slab,
    /// and each frame references its share of it.
    fn fragment(&self, window: &[u8], unit: usize) -> ZcBytes {
        let mut slab = self.ctx.pool.acquire(window.len().max(1));
        slab.set_len(window.len());
        self.ctx.meter.copy_run(CopyLayer::KernelFrag, |copy| {
            for (frag, src) in slab
                .as_mut_slice()
                .chunks_mut(unit)
                .zip(window.chunks(unit))
            {
                copy(frag, src);
            }
        });
        slab.freeze()
    }

    /// Run one descriptor of `block` through the live fault plan (a wire
    /// frame, when the plan can fire) and stage it for the next hand-off.
    fn stage_frame(&mut self, block: Outgoing, offset: usize, payload: ZcBytes) -> TResult<()> {
        let mut frame = Frame {
            lane: block.lane,
            block_id: block.block_id,
            offset: offset as u64,
            total_len: block.total_len,
            sent_ns: block.sent_ns,
            payload,
        };
        let plan = self.active_plan;
        if plan.applies_to(self.is_client) {
            let n = self.frames_since_fault;
            self.frames_since_fault += 1;
            if (plan.cut_after_frames.is_some_and(|k| n >= k) && self.take_trip())
                || (plan.drop_prob > 0.0 && self.fault_rng.gen::<f64>() < plan.drop_prob)
            {
                // The frames before the cut made it onto the wire; the peer
                // drains them, then observes `Closed`.
                let _ = self.put_on_wire();
                self.wire_cut = true;
                self.wires.tx.close();
                self.delayed = None;
                return Err(TransportError::Closed);
            }
            if plan.corrupt_frame == Some(n) && self.take_trip() {
                Self::corrupt_payload(&mut frame);
            }
            if plan.truncate_frame == Some(n) && self.take_trip() {
                // The announced block length is left as it was: downstream
                // sees a fragment stream that can never complete.
                frame.payload = frame.payload.slice(..frame.payload.len() / 2);
            }
            if plan.delay_frame == Some(n) && self.take_trip() {
                self.delayed = Some(frame);
                return Ok(());
            }
        }
        self.staged.of(frame.lane).push_back(frame);
        if let Some(held) = self.delayed.take() {
            self.staged.of(held.lane).push_back(held);
        }
        Ok(())
    }

    /// Hand the staged frames to the peer: one lock, at most one wake-up.
    fn put_on_wire(&mut self) -> TResult<()> {
        let (mut frames, mut wire_bytes) = (0, 0);
        for lane in [Lane::Control, Lane::Data] {
            let unit = Plan::for_lane(&self.cfg, lane).unit;
            for f in self.staged.of(lane).iter() {
                frames += f.wire_frames(unit) as u64;
                wire_bytes += f.wire_bytes(unit) as u64;
            }
        }
        if frames == 0 {
            // The only frame is being held back by `delay_frame`.
            return Ok(());
        }
        self.stats.add(TransportField::FramesSent, frames);
        self.stats.add(TransportField::WireBytesSent, wire_bytes);
        self.wires.tx.push_batch(&mut self.staged)
    }

    /// Flip bits in the frame payload. The payload may reference the
    /// sender's live pages, so corruption first detaches the frame into a
    /// private buffer — the injector must never scribble on application
    /// memory — one that starts a byte past a page boundary, so that a
    /// damaged fragment never passes for a page deposited in place.
    fn corrupt_payload(frame: &mut Frame) {
        let mut detached = AlignedBuf::zeroed(frame.payload.len() + 1);
        let bytes = &mut detached.as_mut_slice()[1..];
        // zc-audit: allow(copy) — fault injector detaches the frame before flipping bits; wire damage on the KernelFrag-sized fragment, not a data-path copy
        bytes.copy_from_slice(frame.payload.as_slice());
        if let Some(b) = bytes.first_mut() {
            *b ^= 0xFF;
        }
        for b in bytes.iter_mut().skip(1).step_by(97) {
            *b ^= 0xA5;
        }
        frame.payload = ZcBytes::from_aligned(detached).slice(1..);
    }

    /// Take what has arrived on `lane` off the wire, waiting for it if
    /// nothing has. Wire bytes are accounted as they leave the wire.
    fn fetch(&mut self, lane: Lane, deadline: Option<Instant>) -> TResult<()> {
        let unit = Plan::for_lane(&self.cfg, lane).unit;
        let inbox = self.inbox.of(lane);
        let had = inbox.len();
        self.wires.rx.drain_into(lane, inbox, deadline)?;
        let wire_bytes: u64 = inbox.range(had..).map(|f| f.wire_bytes(unit) as u64).sum();
        self.stats.add(TransportField::WireBytesRecv, wire_bytes);
        Ok(())
    }

    /// Wait for the first fragment of the next block on `lane` and read
    /// what it announces. The receive timeout bounds the whole block from
    /// here on, not each wait for a window of it: a peer that trickles
    /// frames cannot hold the caller for longer than one timeout.
    fn open_block(&mut self, lane: Lane) -> TResult<Incoming> {
        let deadline = self.recv_timeout.map(|d| Instant::now() + d);
        loop {
            if let Some(first) = self.inbox.of(lane).front() {
                return Ok(Incoming {
                    lane,
                    plan: Plan::for_lane(&self.cfg, lane),
                    deadline,
                    block_id: first.block_id,
                    total: checked_block_len(first.total_len, first.block_id)?,
                    got: 0,
                    frames: 0,
                    queued: 0,
                    sent_ns: first.sent_ns,
                });
            }
            self.fetch(lane, deadline)?;
        }
    }

    /// Take `block` off the wire the way its row receives it.
    fn take_block(&mut self, block: &mut Incoming) -> TResult<ZcBytes> {
        let whole = if block.plan.socket_copy {
            self.recv_streaming(block)?
        } else {
            self.recv_in_place(block)?
        };
        self.stats
            .add(TransportField::BytesRecv, whole.len() as u64);
        Ok(whole)
    }

    /// The streaming receive, trailing the sender: fragments land as they
    /// come off the wire — defragmented into a one-window socket buffer and
    /// `read()` out of it whenever it fills or the wire runs dry, or,
    /// without a defragmentation copy, read straight out of the frame.
    fn recv_streaming(&mut self, block: &mut Incoming) -> TResult<ZcBytes> {
        let mut asm = Reassembly::new(&self.ctx.pool, block.total, block.plan);
        let layer = if block.plan.frag_copy {
            CopyLayer::KernelDefrag
        } else {
            CopyLayer::SocketRecv
        };
        loop {
            let (inbox, meter) = (self.inbox.of(block.lane), &self.ctx.meter);
            meter.copy_run(layer, |copy| -> TResult<()> {
                while !block.is_whole() {
                    let Some(f) = inbox.pop_front() else { break };
                    block.claim(&f)?;
                    asm.land_fragment(f, copy, meter)?;
                }
                Ok(())
            })?;
            asm.read_out(meter)?;
            if block.is_whole() {
                return asm.into_block(block);
            }
            self.fetch(block.lane, block.deadline)?;
        }
    }

    /// The zero-copy data row's receive: the fragments stay where they came
    /// off the wire until all of the block's have, and the receiver
    /// speculates that they landed in place. A hit is the sender's pages,
    /// rejoined; a miss falls back to copying the fragments into a fresh
    /// page-aligned buffer ([`CopyLayer::DepositFallback`]).
    fn recv_in_place(&mut self, block: &mut Incoming) -> TResult<ZcBytes> {
        loop {
            for f in self.inbox.of(block.lane).range(block.queued..) {
                if block.is_whole() {
                    break;
                }
                block.claim(f)?;
            }
            if block.is_whole() {
                break;
            }
            self.fetch(block.lane, block.deadline)?;
        }
        // An empty block has nothing to speculate on.
        if block.total > 0 {
            let holds = self.speculation_holds();
            let inbox = self.inbox.of(block.lane);
            let mut pages = inbox.range(..block.queued).map(|f| &f.payload).peekable();
            // A block that does not start on a page boundary cannot land in
            // place: the speculative-defragmentation hardware places payload
            // at page granularity (paper [10]; ablation A2 exercises exactly
            // this). Nor can a fragment the wire damaged: it was detached
            // from the sender's pages to storage of its own, off a page
            // boundary.
            let aligned = pages.peek().is_some_and(|p| p.is_page_aligned());
            let joined = (holds && aligned)
                .then(|| ZcBytes::join_contiguous(pages))
                .flatten();
            let total = block.total as u64;
            self.stats
                .speculated(joined.is_some(), self.trace_conn, total);
            if let Some(joined) = joined {
                inbox.drain(..block.queued);
                return Ok(joined);
            }
        }
        let (inbox, meter) = (self.inbox.of(block.lane), &self.ctx.meter);
        let mut asm = Reassembly::new(&self.ctx.pool, block.total, block.plan);
        meter.copy_run(CopyLayer::DepositFallback, |copy| {
            inbox
                .drain(..block.queued)
                .try_for_each(|f| asm.land_fragment(f, copy, meter))
        })?;
        asm.into_block(block)
    }

    /// Draw whether this block's speculation holds. The draw always
    /// happens (keeps `rng`'s stream, and therefore every fault-free
    /// experiment, unchanged); an injected miss only overrides a draw that
    /// would have succeeded.
    fn speculation_holds(&mut self) -> bool {
        self.refresh_fault_plan();
        let plan = self.active_plan;
        self.rng.gen::<f64>() < self.cfg.zc_success_prob
            && !(plan.spec_miss_prob > 0.0
                && plan.applies_to(self.is_client)
                && self.fault_rng.gen::<f64>() < plan.spec_miss_prob)
    }
}

impl Connection for SimConn {
    fn send_control_vectored(&mut self, parts: &[&[u8]]) -> TResult<()> {
        self.stats.add(TransportField::ControlSent, 1);
        self.transmit(Outbound::Control(parts))
    }

    fn recv_control(&mut self) -> TResult<ZcBytes> {
        let mut block = self.open_block(Lane::Control)?;
        let msg = self.take_block(&mut block)?;
        self.stats.add(TransportField::ControlRecv, 1);
        Ok(msg)
    }

    fn send_data(&mut self, block: &ZcBytes) -> TResult<()> {
        self.stats.add(TransportField::DataBlocksSent, 1);
        self.transmit(Outbound::Data(block))
    }

    fn recv_data(&mut self, expected_len: usize) -> TResult<ZcBytes> {
        let mut block = self.open_block(Lane::Data)?;
        if block.total != expected_len {
            return Err(WireViolation::BlockLenMismatch {
                announced: expected_len,
                got: block.total,
            }
            .into());
        }
        let data = self.take_block(&mut block)?;
        // Wire frames per block, however few descriptors carried them, and
        // the data-path flight time from the block's put-on-wire stamp
        // (both ends share the trace clock).
        self.ctx
            .telemetry
            .note_data_block(block.frames as u64, block.sent_ns);
        self.stats.add(TransportField::DataBlocksRecv, 1);
        Ok(data)
    }

    fn is_zero_copy(&self) -> bool {
        self.cfg.mode == StackMode::ZeroCopy
    }

    fn stats(&self) -> ConnStats {
        self.stats.snapshot()
    }

    fn peer(&self) -> &str {
        &self.peer
    }

    fn set_recv_timeout(&mut self, timeout: Option<std::time::Duration>) -> TResult<()> {
        self.recv_timeout = timeout;
        Ok(())
    }

    fn trace_conn_id(&self) -> u64 {
        self.trace_conn
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pair(cfg: SimConfig) -> (Box<dyn Connection>, Box<dyn Connection>, TransportCtx) {
        let net = SimNetwork::new(cfg);
        let ctx = TransportCtx::new();
        let listener = net.listen(0, ctx.clone()).unwrap();
        let port = listener.endpoint().1;
        let client = net.connect(port, ctx.clone()).unwrap();
        let server = listener.accept().unwrap();
        (client, server, ctx)
    }

    #[test]
    fn control_roundtrip_copying() {
        let (mut c, mut s, _ctx) = pair(SimConfig::copying());
        c.send_control(b"hello").unwrap();
        assert_eq!(s.recv_control().unwrap(), &b"hello"[..]);
        s.send_control(b"world").unwrap();
        assert_eq!(c.recv_control().unwrap(), &b"world"[..]);
    }

    #[test]
    fn control_roundtrip_zero_copy() {
        let (mut c, mut s, _ctx) = pair(SimConfig::zero_copy());
        c.send_control(b"ping").unwrap();
        assert_eq!(s.recv_control().unwrap(), &b"ping"[..]);
    }

    #[test]
    fn empty_control_message() {
        let (mut c, mut s, _ctx) = pair(SimConfig::copying());
        c.send_control(b"").unwrap();
        assert_eq!(s.recv_control().unwrap(), &b""[..]);
    }

    #[test]
    fn data_roundtrip_copying_has_four_copies() {
        let (mut c, mut s, ctx) = pair(SimConfig::copying());
        let n = 1 << 20;
        let block = ZcBytes::zeroed(n);
        let before = ctx.meter.snapshot();
        c.send_data(&block).unwrap();
        let got = s.recv_data(n).unwrap();
        assert_eq!(got.len(), n);
        let d = ctx.meter.snapshot().since(&before);
        assert_eq!(d.bytes(CopyLayer::SocketSend), n as u64);
        assert_eq!(d.bytes(CopyLayer::KernelFrag), n as u64);
        assert_eq!(d.bytes(CopyLayer::KernelDefrag), n as u64);
        assert_eq!(d.bytes(CopyLayer::SocketRecv), n as u64);
        assert!(!got.ptr_eq(&block), "copying stack must not share storage");
    }

    #[test]
    fn data_roundtrip_zero_copy_touches_nothing() {
        let (mut c, mut s, ctx) = pair(SimConfig::zero_copy());
        let n = (1 << 20) + 123; // non-page-multiple tail
        let mut buf = zc_buffers::AlignedBuf::with_capacity(n);
        let pattern: Vec<u8> = (0..n).map(|i| (i * 7 % 251) as u8).collect();
        buf.extend_from_slice(&pattern);
        let block = ZcBytes::from_aligned(buf);
        let before = ctx.meter.snapshot();
        c.send_data(&block).unwrap();
        let got = s.recv_data(n).unwrap();
        let d = ctx.meter.snapshot().since(&before);
        assert_eq!(d.overhead_bytes(), 0, "no payload byte copied");
        assert!(got.ptr_eq(&block), "receiver sees the sender's pages");
        assert_eq!(got.as_slice(), &pattern[..]);
        assert_eq!(s.stats().spec_hits, 1);
        assert_eq!(s.stats().spec_misses, 0);
    }

    #[test]
    fn zero_copy_speculation_miss_falls_back() {
        let (mut c, mut s, ctx) = pair(SimConfig::zero_copy_with_speculation(0.0));
        let n = 8192;
        let block = ZcBytes::zeroed(n);
        c.send_data(&block).unwrap();
        let got = s.recv_data(n).unwrap();
        assert!(!got.ptr_eq(&block), "miss forces a private copy");
        assert_eq!(got.len(), n);
        assert_eq!(s.stats().spec_misses, 1);
        assert_eq!(
            ctx.meter.bytes(CopyLayer::DepositFallback),
            n as u64,
            "fallback copy metered"
        );
    }

    #[test]
    fn speculation_rate_statistics() {
        let (mut c, mut s, _ctx) = pair(SimConfig::zero_copy_with_speculation(0.5));
        let rounds = 200;
        for _ in 0..rounds {
            c.send_data(&ZcBytes::zeroed(PAGE_SIZE)).unwrap();
            s.recv_data(PAGE_SIZE).unwrap();
        }
        let st = s.stats();
        assert_eq!(st.spec_hits + st.spec_misses, rounds);
        // 0.5 ± generous tolerance for 200 deterministic-seed draws
        assert!(
            st.spec_hits > 50 && st.spec_hits < 150,
            "hits={}",
            st.spec_hits
        );
    }

    #[test]
    fn misaligned_block_forces_fallback_copy() {
        // Ablation A2: a block that does not start on a page boundary can
        // never be deposited in place — the driver must copy.
        let (mut c, mut s, ctx) = pair(SimConfig::zero_copy());
        let whole = ZcBytes::zeroed(PAGE_SIZE * 2);
        let misaligned = whole.slice(1..PAGE_SIZE + 1);
        assert!(!misaligned.is_page_aligned());
        c.send_data(&misaligned).unwrap();
        let got = s.recv_data(PAGE_SIZE).unwrap();
        assert!(!got.ptr_eq(&whole), "misaligned deposit cannot share pages");
        assert_eq!(s.stats().spec_misses, 1);
        assert_eq!(
            ctx.meter.bytes(CopyLayer::DepositFallback),
            PAGE_SIZE as u64
        );
    }

    #[test]
    fn empty_data_block() {
        let (mut c, mut s, _ctx) = pair(SimConfig::zero_copy());
        c.send_data(&ZcBytes::empty()).unwrap();
        assert_eq!(s.recv_data(0).unwrap().len(), 0);
        let (mut c2, mut s2, _ctx2) = pair(SimConfig::copying());
        c2.send_data(&ZcBytes::empty()).unwrap();
        assert_eq!(s2.recv_data(0).unwrap().len(), 0);
    }

    #[test]
    fn length_mismatch_is_protocol_error() {
        let (mut c, mut s, _ctx) = pair(SimConfig::copying());
        c.send_data(&ZcBytes::zeroed(100)).unwrap();
        assert!(matches!(s.recv_data(200), Err(TransportError::Protocol(_))));
    }

    #[test]
    fn interleaved_control_and_data() {
        let (mut c, mut s, _ctx) = pair(SimConfig::zero_copy());
        // Send data first, then control; receive control first.
        c.send_data(&ZcBytes::zeroed(PAGE_SIZE * 2)).unwrap();
        c.send_control(b"after-data").unwrap();
        assert_eq!(s.recv_control().unwrap(), &b"after-data"[..]);
        assert_eq!(s.recv_data(PAGE_SIZE * 2).unwrap().len(), PAGE_SIZE * 2);
    }

    #[test]
    fn peer_close_is_detected() {
        let (c, mut s, _ctx) = pair(SimConfig::copying());
        drop(c);
        assert_eq!(s.recv_control().unwrap_err(), TransportError::Closed);
    }

    #[test]
    fn connect_refused_without_listener() {
        let net = SimNetwork::new(SimConfig::copying());
        assert!(matches!(
            net.connect(9, TransportCtx::new()),
            Err(TransportError::ConnectionRefused(_))
        ));
    }

    #[test]
    fn port_reuse_rejected_then_released() {
        let net = SimNetwork::new(SimConfig::copying());
        let l = net.listen(5000, TransportCtx::new()).unwrap();
        assert!(matches!(
            net.listen(5000, TransportCtx::new()),
            Err(TransportError::AddrInUse(_))
        ));
        drop(l);
        assert!(net.listen(5000, TransportCtx::new()).is_ok());
    }

    #[test]
    fn dialer_sees_closed_when_the_listener_goes_before_accepting() {
        let net = SimNetwork::new(SimConfig::zero_copy());
        let l = net.listen(0, TransportCtx::new()).unwrap();
        let mut c = net.connect(l.endpoint().1, TransportCtx::new()).unwrap();
        drop(l);
        assert_eq!(c.recv_control().unwrap_err(), TransportError::Closed);
        assert_eq!(
            c.send_control(b"hello").unwrap_err(),
            TransportError::Closed
        );
    }

    #[test]
    fn multiple_connections_are_independent() {
        let net = SimNetwork::new(SimConfig::zero_copy());
        let ctx = TransportCtx::new();
        let l = net.listen(0, ctx.clone()).unwrap();
        let port = l.endpoint().1;
        let mut c1 = net.connect(port, ctx.clone()).unwrap();
        let mut c2 = net.connect(port, ctx.clone()).unwrap();
        let mut s1 = l.accept().unwrap();
        let mut s2 = l.accept().unwrap();
        c1.send_control(b"one").unwrap();
        c2.send_control(b"two").unwrap();
        assert_eq!(s1.recv_control().unwrap(), &b"one"[..]);
        assert_eq!(s2.recv_control().unwrap(), &b"two"[..]);
    }

    fn faulty_pair(
        cfg: SimConfig,
    ) -> (
        SimNetwork,
        Box<dyn Connection>,
        Box<dyn Connection>,
        TransportCtx,
    ) {
        let net = SimNetwork::new(cfg);
        let ctx = TransportCtx::new();
        let listener = net.listen(0, ctx.clone()).unwrap();
        let port = listener.endpoint().1;
        let client = net.connect(port, ctx.clone()).unwrap();
        let server = listener.accept().unwrap();
        (net, client, server, ctx)
    }

    #[test]
    fn fault_cut_kills_sender_then_peer_and_spares_replacements() {
        let net = SimNetwork::new(SimConfig::copying());
        let ctx = TransportCtx::new();
        let l = net.listen(0, ctx.clone()).unwrap();
        let port = l.endpoint().1;
        let mut c = net.connect(port, ctx.clone()).unwrap();
        let mut s = l.accept().unwrap();
        c.send_control(b"ok").unwrap();
        assert_eq!(s.recv_control().unwrap(), &b"ok"[..]);

        net.inject_faults(FaultPlan::cut_after(0).on(FaultSide::Client));
        assert_eq!(c.send_control(b"dead").unwrap_err(), TransportError::Closed);
        assert_eq!(
            c.send_control(b"still dead").unwrap_err(),
            TransportError::Closed,
            "a cut wire stays cut"
        );
        assert_eq!(s.recv_control().unwrap_err(), TransportError::Closed);
        assert_eq!(net.faults_tripped(), 1);

        // The trip budget is spent: a replacement connection sails through.
        let mut c2 = net.connect(port, ctx.clone()).unwrap();
        let mut s2 = l.accept().unwrap();
        c2.send_control(b"again").unwrap();
        assert_eq!(s2.recv_control().unwrap(), &b"again"[..]);
    }

    #[test]
    fn fault_drop_prob_one_kills_immediately() {
        let (net, mut c, _s, _ctx) = faulty_pair(SimConfig::copying());
        net.inject_faults(FaultPlan::drop(1.0));
        assert_eq!(c.send_control(b"x").unwrap_err(), TransportError::Closed);
    }

    #[test]
    fn fault_corrupt_frame_delivers_damaged_bytes() {
        let (net, mut c, mut s, _ctx) = faulty_pair(SimConfig::copying());
        net.inject_faults(FaultPlan {
            corrupt_frame: Some(0),
            ..FaultPlan::default()
        });
        let original = b"hello fault injector".to_vec();
        c.send_control(&original).unwrap();
        let got = s.recv_control().unwrap();
        assert_eq!(got.len(), original.len());
        assert_ne!(got.as_slice(), original, "payload must arrive damaged");
    }

    #[test]
    fn fault_corrupt_never_touches_sender_pages() {
        let (net, mut c, mut s, _ctx) = faulty_pair(SimConfig::zero_copy());
        net.inject_faults(FaultPlan {
            corrupt_frame: Some(0),
            ..FaultPlan::default()
        });
        let block = ZcBytes::zeroed(PAGE_SIZE);
        c.send_data(&block).unwrap();
        let got = s.recv_data(PAGE_SIZE).unwrap();
        assert!(
            block.as_slice().iter().all(|&b| b == 0),
            "sender buffer intact"
        );
        assert_ne!(got.as_slice(), block.as_slice(), "receiver sees damage");
        assert_eq!(s.stats().spec_misses, 1, "detached frame cannot join");
    }

    #[test]
    fn fault_truncate_surfaces_as_protocol_error() {
        let (net, mut c, mut s, _ctx) = faulty_pair(SimConfig::copying());
        net.inject_faults(FaultPlan {
            truncate_frame: Some(0),
            ..FaultPlan::default()
        });
        c.send_control(b"0123456789").unwrap();
        // The truncated block can never complete; the next block's frames
        // expose the mismatch deterministically.
        c.send_control(b"next").unwrap();
        assert!(matches!(s.recv_control(), Err(TransportError::Protocol(_))));
    }

    #[test]
    fn fault_delay_reorders_but_bytes_survive() {
        let (net, mut c, mut s, _ctx) = faulty_pair(SimConfig::zero_copy());
        net.inject_faults(FaultPlan {
            delay_frame: Some(0),
            ..FaultPlan::default()
        });
        let n = PAGE_SIZE * 2;
        let mut buf = zc_buffers::AlignedBuf::with_capacity(n);
        let pattern: Vec<u8> = (0..n).map(|i| (i * 13 % 251) as u8).collect();
        buf.extend_from_slice(&pattern);
        let block = ZcBytes::from_aligned(buf);
        c.send_data(&block).unwrap();
        let got = s.recv_data(n).unwrap();
        assert_eq!(got.as_slice(), &pattern[..], "reassembly is offset-based");
        assert_eq!(
            s.stats().spec_misses,
            1,
            "reordered fragments cannot join in place"
        );
    }

    #[test]
    fn fault_spec_miss_forces_fallback_with_intact_payload() {
        let (net, mut c, mut s, ctx) = faulty_pair(SimConfig::zero_copy());
        net.inject_faults(FaultPlan::spec_miss(1.0));
        let block = ZcBytes::zeroed(PAGE_SIZE);
        c.send_data(&block).unwrap();
        let got = s.recv_data(PAGE_SIZE).unwrap();
        assert!(!got.ptr_eq(&block), "forced miss copies");
        assert_eq!(got.as_slice(), block.as_slice());
        assert_eq!(s.stats().spec_misses, 1);
        assert_eq!(
            ctx.meter.bytes(CopyLayer::DepositFallback),
            PAGE_SIZE as u64
        );

        // Clearing the plan restores in-place deposits.
        net.clear_faults();
        c.send_data(&block).unwrap();
        let again = s.recv_data(PAGE_SIZE).unwrap();
        assert!(again.ptr_eq(&block));
    }

    #[test]
    fn fault_refuse_connects_then_clear() {
        let net = SimNetwork::new(SimConfig::copying());
        let ctx = TransportCtx::new();
        let l = net.listen(0, ctx.clone()).unwrap();
        let port = l.endpoint().1;
        net.inject_faults(FaultPlan::refuse());
        assert!(matches!(
            net.connect(port, ctx.clone()),
            Err(TransportError::ConnectionRefused(_))
        ));
        net.clear_faults();
        assert!(net.connect(port, ctx.clone()).is_ok());
    }

    #[test]
    fn fault_side_filter_leaves_other_side_alone() {
        let (net, mut c, mut s, _ctx) = faulty_pair(SimConfig::copying());
        net.inject_faults(FaultPlan::cut_after(0).on(FaultSide::Server));
        // Client sending is unaffected…
        c.send_control(b"client fine").unwrap();
        assert_eq!(s.recv_control().unwrap(), &b"client fine"[..]);
        // …but the server's first send dies.
        assert_eq!(s.send_control(b"x").unwrap_err(), TransportError::Closed);
    }

    #[test]
    fn oversized_block_announcement_rejected() {
        let (mut conn, wire) = fed_by_hand(SimConfig::copying());
        let hostile = Frame {
            lane: Lane::Control,
            block_id: 0,
            offset: 0,
            total_len: MAX_SIM_BLOCK_BYTES + 1,
            sent_ns: 0,
            payload: ZcBytes::zeroed(16),
        };
        let mut staged = Lanes::default();
        staged.control.push_back(hostile);
        wire.push_batch(&mut staged).unwrap();
        match conn.recv_control() {
            Err(TransportError::Protocol(WireViolation::BlockTooLarge { cap, .. })) => {
                assert_eq!(cap, MAX_SIM_BLOCK_BYTES);
            }
            other => panic!("expected protocol error, got {other:?}"),
        }
    }

    /// A block of `frames` frames in `cfg`'s data-lane unit, filled with a
    /// position-dependent pattern.
    fn patterned_block(cfg: SimConfig, frames: usize) -> (ZcBytes, Vec<u8>, usize) {
        let unit = match cfg.mode {
            StackMode::Copying => cfg.mtu_payload,
            StackMode::ZeroCopy => PAGE_SIZE,
        };
        let pattern: Vec<u8> = (0..unit * frames).map(|i| (i * 13 % 251) as u8).collect();
        let mut buf = zc_buffers::AlignedBuf::with_capacity(pattern.len());
        buf.extend_from_slice(&pattern);
        (ZcBytes::from_aligned(buf), pattern, unit)
    }

    /// A batch is a delivery unit, never a fault unit: a fault addressed to
    /// the third of a block's five frames does to the receiver exactly
    /// what it did when frames crossed the wire one by one.
    #[test]
    fn faults_in_the_middle_of_a_batch_stay_per_frame() {
        for cfg in [SimConfig::copying(), SimConfig::zero_copy()] {
            let zero_copy = cfg.mode == StackMode::ZeroCopy;
            let (block, pattern, unit) = patterned_block(cfg, 5);
            let n = pattern.len();

            // Cut: the two frames before it are delivered, then the wire
            // is gone for both ends.
            let (net, mut c, mut s, _ctx) = faulty_pair(cfg);
            net.inject_faults(FaultPlan::cut_after(2).on(FaultSide::Client));
            assert_eq!(c.send_data(&block).unwrap_err(), TransportError::Closed);
            assert_eq!(c.stats().frames_sent, 2, "{cfg:?}");
            assert_eq!(s.recv_data(n).unwrap_err(), TransportError::Closed);
            assert_eq!(s.stats().wire_bytes_recv, c.stats().wire_bytes_sent);
            assert_eq!(
                s.stats().wire_bytes_recv,
                2 * (unit + crate::frame::FRAME_HEADER_BYTES) as u64
            );
            assert_eq!(net.faults_tripped(), 1);

            // Corrupt: damage inside the third frame only, the sender's
            // pages untouched, and no in-place deposit of a detached frame.
            let (net, mut c, mut s, _ctx) = faulty_pair(cfg);
            net.inject_faults(FaultPlan {
                corrupt_frame: Some(2),
                ..FaultPlan::default()
            });
            c.send_data(&block).unwrap();
            let got = s.recv_data(n).unwrap();
            assert_eq!(block.as_slice(), &pattern[..], "sender pages intact");
            let third = 2 * unit..3 * unit;
            assert_ne!(got[third.clone()], pattern[third.clone()], "{cfg:?}");
            assert_eq!(got[..third.start], pattern[..third.start]);
            assert_eq!(got[third.end..], pattern[third.end..]);
            assert_eq!(s.stats().spec_misses, u64::from(zero_copy));
            assert_eq!(net.faults_tripped(), 1);

            // Delay: the third frame arrives after the fourth; reassembly
            // is by offset, so the bytes survive, but not in place.
            let (net, mut c, mut s, _ctx) = faulty_pair(cfg);
            net.inject_faults(FaultPlan {
                delay_frame: Some(2),
                ..FaultPlan::default()
            });
            c.send_data(&block).unwrap();
            assert_eq!(c.stats().frames_sent, 5);
            let got = s.recv_data(n).unwrap();
            assert_eq!(got.as_slice(), &pattern[..], "{cfg:?}");
            assert_eq!(s.stats().spec_misses, u64::from(zero_copy));
            assert_eq!(s.stats().spec_hits, 0);
            assert_eq!(net.faults_tripped(), 1);

            // Truncate: the block can never complete; the next block's
            // first frame exposes it.
            let (net, mut c, mut s, _ctx) = faulty_pair(cfg);
            net.inject_faults(FaultPlan {
                truncate_frame: Some(2),
                ..FaultPlan::default()
            });
            c.send_data(&block).unwrap();
            c.send_data(&block).unwrap();
            assert!(
                matches!(s.recv_data(n), Err(TransportError::Protocol(_))),
                "{cfg:?}"
            );
            assert_eq!(s.stats().wire_bytes_recv, c.stats().wire_bytes_sent);
            assert_eq!(net.faults_tripped(), 1);
        }
    }

    /// A frame delayed past the end of its block rides the next send's
    /// batch: that batch mixes two blocks (and here two lanes), and both
    /// still come out whole.
    #[test]
    fn delayed_last_frame_rides_the_next_batch() {
        let cfg = SimConfig::copying();
        let (net, mut c, mut s, _ctx) = faulty_pair(cfg);
        let (block, pattern, _) = patterned_block(cfg, 3);
        net.inject_faults(FaultPlan {
            delay_frame: Some(2),
            ..FaultPlan::default()
        });
        c.send_data(&block).unwrap();
        assert_eq!(c.stats().frames_sent, 2, "the last frame is held back");
        c.send_control(b"after").unwrap();
        assert_eq!(c.stats().frames_sent, 4);
        assert_eq!(s.recv_data(pattern.len()).unwrap().as_slice(), &pattern[..]);
        assert_eq!(s.recv_control().unwrap(), &b"after"[..]);
    }

    /// A live connection takes each block's granularity from the plan it
    /// sees at that send: one descriptor for the block, one per frame while
    /// a per-frame fault is armed, and one again once the plan is cleared.
    /// A descriptor holds a view of the sender's pages, so the block's
    /// refcount counts the descriptors on the wire.
    #[test]
    fn fault_plan_switches_descriptor_granularity_on_a_live_connection() {
        let cfg = SimConfig::zero_copy();
        let (net, mut c, mut s, _ctx) = faulty_pair(cfg);
        let (block, pattern, unit) = patterned_block(cfg, 5);
        let n = pattern.len();
        let spec = |st: ConnStats| (st.spec_hits, st.spec_misses);

        c.send_data(&block).unwrap();
        assert_eq!(block.ref_count(), 2, "one descriptor for the block");
        assert!(s.recv_data(n).unwrap().ptr_eq(&block));
        assert_eq!(spec(s.stats()), (1, 0));

        net.inject_faults(FaultPlan {
            corrupt_frame: Some(2),
            ..FaultPlan::default()
        });
        c.send_data(&block).unwrap();
        // Five frames, the damaged third one detached from the pages.
        assert_eq!(block.ref_count(), 5);
        let got = s.recv_data(n).unwrap();
        let third = 2 * unit..3 * unit;
        assert_ne!(got[third.clone()], pattern[third.clone()]);
        assert_eq!(got[..third.start], pattern[..third.start]);
        assert_eq!(got[third.end..], pattern[third.end..]);
        assert_eq!(block.as_slice(), &pattern[..], "sender pages intact");
        assert_eq!(spec(s.stats()), (1, 1));
        assert_eq!(net.faults_tripped(), 1);

        net.clear_faults();
        c.send_data(&block).unwrap();
        assert_eq!(block.ref_count(), 2, "one descriptor again");
        assert!(s.recv_data(n).unwrap().ptr_eq(&block));
        assert_eq!(spec(s.stats()), (2, 1));
        assert_eq!(c.stats().frames_sent, 15);
        assert_eq!(s.stats().wire_bytes_recv, c.stats().wire_bytes_sent);
    }

    /// `drop_prob` draws once per wire frame, so with a fixed seed the
    /// connection dies at the frame it died at when every wire frame was a
    /// queue element of its own (20 and 109, measured then).
    #[test]
    fn fault_drop_prob_kills_at_the_same_frame() {
        for (cfg, dies_at) in [(SimConfig::copying(), 20), (SimConfig::zero_copy(), 109)] {
            let (net, mut c, _s, _ctx) = faulty_pair(cfg);
            net.inject_faults(FaultPlan::drop(0.01));
            let (block, _, unit) = patterned_block(cfg, 16);
            let sent = (0..1000)
                .take_while(|_| c.send_data(&block).is_ok())
                .count();
            assert!(sent < 1000, "{cfg:?}: the connection never died");
            let st = c.stats();
            assert_eq!(st.frames_sent, dies_at, "{cfg:?}");
            let frame_bytes = (unit + crate::frame::FRAME_HEADER_BYTES) as u64;
            assert_eq!(st.wire_bytes_sent, dies_at * frame_bytes, "{cfg:?}");
        }
    }

    #[test]
    fn recv_timeout_fires_while_the_other_lane_has_a_block_queued() {
        for cfg in [SimConfig::copying(), SimConfig::zero_copy()] {
            let (mut c, mut s, _ctx) = pair(cfg);
            let (block, pattern, _) = patterned_block(cfg, 4);
            c.send_data(&block).unwrap();
            s.set_recv_timeout(Some(std::time::Duration::from_millis(20)))
                .unwrap();
            // The queued data block must neither satisfy nor wedge a
            // control receive: it stays on its lane, and the wait times out.
            assert_eq!(s.recv_control().unwrap_err(), TransportError::Timeout);
            assert_eq!(s.recv_data(pattern.len()).unwrap().as_slice(), &pattern[..]);
            assert_eq!(
                s.recv_data(pattern.len()).unwrap_err(),
                TransportError::Timeout
            );
            // And the lane it waited for still works afterwards.
            c.send_control(b"late").unwrap();
            assert_eq!(s.recv_control().unwrap(), &b"late"[..]);
        }
    }

    /// A connection end whose incoming wire the test feeds by hand.
    fn fed_by_hand(cfg: SimConfig) -> (SimConn, Arc<Wire>) {
        fed_by_hand_on(cfg, TransportCtx::new())
    }

    /// [`fed_by_hand`], with `ctx` installed.
    fn fed_by_hand_on(cfg: SimConfig, ctx: TransportCtx) -> (SimConn, Arc<Wire>) {
        let wire = Arc::<Wire>::default();
        let conn = Half {
            peer: "sim:test#fed".to_string(),
            cfg,
            wires: Wires {
                tx: Arc::default(),
                rx: Arc::clone(&wire),
            },
            seed_salt: 7,
            is_client: false,
            faults: Arc::default(),
        }
        .attach(ctx);
        (conn, wire)
    }

    /// The receive timeout bounds the call, not each wait inside it: a
    /// peer that keeps a block trickling in, every frame well inside the
    /// timeout, still runs into it. (Re-armed per wake-up, this receive
    /// would sit out the whole second the block takes and succeed.)
    #[test]
    fn recv_timeout_is_one_deadline_for_the_whole_block() {
        const FRAMES: u64 = 200;
        for cfg in [SimConfig::copying(), SimConfig::zero_copy()] {
            let (mut conn, wire) = fed_by_hand(cfg);
            conn.set_recv_timeout(Some(std::time::Duration::from_millis(60)))
                .unwrap();
            let trickle = std::thread::spawn(move || {
                for i in 0..FRAMES {
                    let mut staged = Lanes::default();
                    staged.data.push_back(Frame {
                        lane: Lane::Data,
                        block_id: 0,
                        offset: i * 8,
                        total_len: FRAMES * 8,
                        sent_ns: 0,
                        payload: ZcBytes::zeroed(8),
                    });
                    if wire.push_batch(&mut staged).is_err() {
                        return; // the receiver gave up and hung up
                    }
                    std::thread::sleep(std::time::Duration::from_millis(5));
                }
            });
            assert_eq!(
                conn.recv_data(FRAMES as usize * 8).unwrap_err(),
                TransportError::Timeout,
                "{cfg:?}"
            );
            drop(conn);
            trickle.join().unwrap();
        }
    }

    /// The conventional receiver neither panics on nor papers over
    /// fragments no sender of ours would produce: one that does not fit the
    /// socket buffer, and ones that overlap instead of tiling their block.
    #[test]
    fn hostile_fragments_do_not_pass_the_socket_buffer() {
        let cfg = SimConfig {
            mtu_payload: 16,
            ..SimConfig::copying()
        };
        let frame = |offset: u64, len: usize, total_len: u64| Frame {
            lane: Lane::Control,
            block_id: 0,
            offset,
            total_len,
            sent_ns: 0,
            payload: ZcBytes::zeroed(len),
        };
        let oversized = WINDOW_FRAMES * cfg.mtu_payload + 1;
        for hostile in [
            vec![frame(0, oversized, 2 * oversized as u64)],
            vec![frame(0, 8, 16), frame(0, 8, 16)],
        ] {
            let (mut conn, wire) = fed_by_hand(cfg);
            let mut staged = Lanes::default();
            staged.control.extend(hostile);
            wire.push_batch(&mut staged).unwrap();
            assert!(matches!(
                conn.recv_control(),
                Err(TransportError::Protocol(_))
            ));
        }
    }

    #[test]
    fn control_message_is_gathered_from_its_parts_by_the_send_copy() {
        for cfg in [SimConfig::copying(), SimConfig::zero_copy()] {
            let (mut c, mut s, ctx) = pair(cfg);
            let body = vec![7u8; 3 * MTU_PAYLOAD];
            let before = ctx.meter.snapshot();
            c.send_control_vectored(&[b"head", &[], &body, b"tail"])
                .unwrap();
            let got = s.recv_control().unwrap();
            let n = 8 + body.len();
            assert_eq!(got.len(), n);
            assert_eq!(got[..4], *b"head");
            assert_eq!(got[4..n - 4], body[..]);
            assert_eq!(got[n - 4..], *b"tail");
            let d = ctx.meter.snapshot().since(&before);
            assert_eq!(d.bytes(CopyLayer::SocketSend), n as u64, "{cfg:?}");
            assert_eq!(d.bytes(CopyLayer::SocketRecv), n as u64, "{cfg:?}");
        }
    }

    #[test]
    fn frame_and_wire_accounting() {
        let (mut c, _s, _ctx) = pair(SimConfig::copying());
        let n = MTU_PAYLOAD * 3 + 10;
        c.send_data(&ZcBytes::zeroed(n)).unwrap();
        let st = c.stats();
        assert_eq!(st.frames_sent, 4, "3 full frames + 1 tail");
        assert_eq!(
            st.wire_bytes_sent,
            (n + 4 * crate::frame::FRAME_HEADER_BYTES) as u64
        );
    }

    /// Every row of the stack table, at sizes either side of its units:
    /// each copy layer meters exactly what the row declares — the block
    /// once at each of its layers, nothing anywhere else — and the block
    /// crosses in the frames its unit cuts it into, each carrying a header,
    /// carried by one descriptor per window.
    #[test]
    fn every_row_meters_its_declared_copies_frames_and_wire_bytes() {
        use CopyLayer::{DepositFallback, KernelDefrag, KernelFrag, SocketRecv, SocketSend};
        let four = [SocketSend, KernelFrag, KernelDefrag, SocketRecv];
        let window = WINDOW_FRAMES * MTU_PAYLOAD;
        // (stack, lane, payload bytes per frame, bytes per hand-off, the
        // layers every byte of the block is copied at)
        let rows: [(SimConfig, Lane, usize, usize, &[CopyLayer]); 5] = [
            (
                SimConfig::copying(),
                Lane::Control,
                MTU_PAYLOAD,
                window,
                &four,
            ),
            (SimConfig::copying(), Lane::Data, MTU_PAYLOAD, window, &four),
            (
                SimConfig::zero_copy(),
                Lane::Control,
                usize::MAX,
                usize::MAX,
                &[SocketSend, SocketRecv],
            ),
            (
                SimConfig::zero_copy(),
                Lane::Data,
                PAGE_SIZE,
                usize::MAX,
                &[],
            ),
            // The same row when speculation misses: the fallback copy.
            (
                SimConfig::zero_copy_with_speculation(0.0),
                Lane::Data,
                PAGE_SIZE,
                usize::MAX,
                &[DepositFallback],
            ),
        ];
        for (cfg, lane, unit, window, layers) in rows {
            let declared = Plan {
                socket_copy: layers.contains(&SocketSend),
                frag_copy: layers.contains(&KernelFrag),
                unit,
                window,
            };
            assert_eq!(Plan::for_lane(&cfg, lane), declared, "{cfg:?} {lane:?}");
            for len in [
                0,
                1,
                MTU_PAYLOAD + 1,
                WINDOW_FRAMES * MTU_PAYLOAD + 1,
                1 << 20,
            ] {
                let what = format!("{cfg:?} {lane:?} len {len}");
                let ctx = TransportCtx::with_telemetry(
                    CopyMeter::new_shared(),
                    zc_trace::Telemetry::new_shared(),
                );
                // The test carries the descriptors from one end's wire to
                // the other's, so it sees what each hand-off put on it.
                let (mut c, _) = fed_by_hand_on(cfg, ctx.clone());
                let (mut s, wire) = fed_by_hand_on(cfg, ctx.clone());
                let pattern: Vec<u8> = (0..len).map(|i| (i * 13 % 251) as u8).collect();
                let before = ctx.meter.snapshot();
                match lane {
                    Lane::Control => c.send_control(&pattern).unwrap(),
                    Lane::Data => {
                        let block = ZcBytes::from_aligned(AlignedBuf::from_slice(&pattern));
                        c.send_data(&block).unwrap();
                    }
                }
                let mut on_wire = Lanes::default();
                c.wires.tx.drain_into(lane, on_wire.of(lane), None).unwrap();
                let descriptors: Vec<_> = on_wire.of(lane).iter().map(|f| f.offset).collect();
                let windows: Vec<_> = (0..len.max(1))
                    .step_by(window)
                    .map(|at| at as u64)
                    .collect();
                assert_eq!(descriptors, windows, "{what}: one descriptor per window");
                wire.push_batch(&mut on_wire).unwrap();
                let got = match lane {
                    Lane::Control => s.recv_control().unwrap(),
                    Lane::Data => s.recv_data(len).unwrap(),
                };
                assert!(got.as_slice() == &pattern[..], "{what}");
                let copied = ctx.meter.snapshot().since(&before);
                for layer in CopyLayer::ALL {
                    let bytes = if layers.contains(&layer) { len } else { 0 };
                    assert_eq!(copied.bytes(layer), bytes as u64, "{what} {layer:?}");
                }
                let frames = len.div_ceil(unit).max(1) as u64;
                let (sent, received) = (c.stats(), s.stats());
                assert_eq!(sent.frames_sent, frames, "{what}");
                assert_eq!(
                    sent.wire_bytes_sent,
                    len as u64 + frames * crate::frame::FRAME_HEADER_BYTES as u64,
                    "{what}"
                );
                assert_eq!(received.wire_bytes_recv, sent.wire_bytes_sent, "{what}");
                // The receiver counts the block's wire frames, not its
                // descriptors: 256 for a 1 MiB zero-copy block.
                let per_block = ctx.telemetry.metrics().snapshot().frames_per_block;
                let data_blocks = u64::from(lane == Lane::Data);
                assert_eq!(
                    (per_block.count, per_block.sum),
                    (data_blocks, data_blocks * frames),
                    "{what}"
                );
                // An empty block has nothing to speculate on.
                let speculated = u64::from(!declared.socket_copy && len > 0);
                let missed = u64::from(layers.contains(&DepositFallback));
                assert_eq!(
                    (received.spec_hits, received.spec_misses),
                    (speculated * (1 - missed), speculated * missed),
                    "{what}"
                );
            }
        }
    }

    /// Fragments that overlap instead of tiling their block are named as
    /// such on every row — on the streaming receive and on the fallback
    /// copy after a missed speculation — never papered over with whatever
    /// the pooled buffer held before.
    #[test]
    fn overlapping_fragments_are_named_on_every_row() {
        for cfg in [SimConfig::copying(), SimConfig::zero_copy()] {
            for lane in [Lane::Control, Lane::Data] {
                let (mut conn, wire) = fed_by_hand(cfg);
                let mut staged = Lanes::default();
                for _ in 0..2 {
                    staged.of(lane).push_back(Frame {
                        lane,
                        block_id: 0,
                        offset: 0,
                        total_len: 16,
                        sent_ns: 0,
                        payload: ZcBytes::zeroed(8),
                    });
                }
                wire.push_batch(&mut staged).unwrap();
                let got = match lane {
                    Lane::Control => conn.recv_control(),
                    Lane::Data => conn.recv_data(16),
                };
                let overlap = WireViolation::FragmentsOverlap {
                    block: 0,
                    missing: 8,
                    total: 16,
                };
                assert_eq!(got.unwrap_err(), overlap.into(), "{cfg:?} {lane:?}");
            }
        }
    }
}
