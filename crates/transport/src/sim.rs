//! The in-process simulated network stack.
//!
//! [`SimNetwork`] is a process-local "cluster interconnect": listeners bind
//! ports, connectors dial them, and each connection is a pair of frame
//! rings (the wire), one per direction, that the sender feeds a batch of
//! frames at a time — one lock, at most one wake-up — and the receiver
//! drains as the frames arrive. What makes it a *simulation of the paper's
//! kernel stacks* — rather than a mere message queue — is that the
//! per-layer work of the two stack configurations is **actually performed**
//! on real memory, through the copy meter:
//!
//! * [`StackMode::Copying`] — the conventional path of Figure 1. Sending a
//!   block really copies it user→kernel ([`CopyLayer::SocketSend`]), really
//!   fragments it into MTU frames with a header-insertion copy
//!   ([`CopyLayer::KernelFrag`]); receiving really reassembles fragments
//!   into a kernel buffer ([`CopyLayer::KernelDefrag`]) and really copies
//!   kernel→user ([`CopyLayer::SocketRecv`]). Four full traversals of the
//!   payload, exactly the per-byte overhead the paper attacks — and no
//!   fifth: every one of those buffers is a pooled page run, and the wire's
//!   frame queues keep their storage, so in steady state the stack does
//!   not touch the heap. The stack **cuts through**, as a kernel's does:
//!   the block moves in windows of `WINDOW_FRAMES` frames, a window's
//!   segments leave while `write()` is still copying the next, and the
//!   receiving CPU defragments and `read()`s window *n* while the sending
//!   CPU copies window *n + 1* — both socket buffers hold one window, so a
//!   window is still in cache for its second copy.
//!
//! * [`StackMode::ZeroCopy`] — the speculative-defragmentation path \[10\].
//!   Payload pages cross the wire *by reference* (page-granular fragments
//!   of the sender's buffer). The receiver **speculates** that fragments
//!   landed in place; with probability `zc_success_prob` the speculation
//!   holds and the block is rejoined without touching a byte
//!   ([`zc_buffers::ZcBytes::join_contiguous`]). A miss falls back to the
//!   conventional copy ([`CopyLayer::DepositFallback`]) — the probabilistic
//!   fallback of the real driver.

use std::collections::{vec_deque, HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Condvar, MutexGuard, PoisonError};
use std::time::Instant;

use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use zc_buffers::{CopyLayer, CopyMeter, PagePool, PooledBuf, ZcBytes, PAGE_SIZE};

use crate::frame::{Frame, FramePayload, Lane, MTU_PAYLOAD};
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
            mtu_payload: MTU_PAYLOAD,
            zc_success_prob: 1.0,
            // zc-audit: allow(wire-const) — deterministic RNG seed; "ZC" digits are branding, not a protocol id
            seed: 0x5A43_0001,
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
}

/// Live fault state shared by every connection of one [`SimNetwork`].
#[derive(Default)]
struct FaultState {
    plan: Mutex<FaultPlan>,
    generation: AtomicU64,
    trips: AtomicU64,
}

type PendingConn = Box<SimConn>;

struct NetInner {
    listeners: Mutex<HashMap<u16, mpsc::Sender<PendingConn>>>,
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
        let cfg = self.inner.config;
        // Two unidirectional frame rings form the full-duplex wire.
        let (c2s, s2c) = (Arc::<Wire>::default(), Arc::<Wire>::default());

        let client = SimConn::new(
            // zc-audit: allow(control-plane) — peer name, built once per connection
            format!("sim:{port}#c{conn_id}"),
            cfg,
            ctx,
            Arc::clone(&c2s),
            Arc::clone(&s2c),
            conn_id * 2,
            true,
            Arc::clone(&self.inner.faults),
        );
        // Server side gets its context from the listener at accept time; a
        // placeholder ctx here would double-count, so the listener injects
        // its own ctx into the pending half.
        let server_half = PendingHalf {
            // zc-audit: allow(control-plane) — peer name, built once per connection
            peer: format!("sim:{port}#s{conn_id}"),
            cfg,
            tx: s2c,
            rx: c2s,
            seed_salt: conn_id * 2 + 1,
            faults: Arc::clone(&self.inner.faults),
        };
        listener_tx
            .send(Box::new(SimConn::from_half(
                server_half,
                TransportCtx::new(),
            )))
            .map_err(|_| TransportError::ConnectionRefused(port))?;
        // NOTE: from_half above installs a throwaway ctx; the listener
        // replaces it in accept(). See SimListener::accept.
        Ok(Box::new(client))
    }

    fn unlisten(&self, port: u16) {
        self.inner.listeners.lock().remove(&port);
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

struct PendingHalf {
    peer: String,
    cfg: SimConfig,
    tx: Arc<Wire>,
    rx: Arc<Wire>,
    seed_salt: u64,
    faults: Arc<FaultState>,
}

/// A bound simulated listener.
pub struct SimListener {
    network: SimNetwork,
    port: u16,
    rx: mpsc::Receiver<PendingConn>,
    ctx: TransportCtx,
}

impl Acceptor for SimListener {
    fn accept(&self) -> TResult<Box<dyn Connection>> {
        let mut conn = self.rx.recv().map_err(|_| TransportError::Closed)?;
        // Install the listener's context (meter + pool + telemetry) into
        // the accepted half so server-side copies land on the server's
        // meter.
        // zc-audit: allow(cheap-clone) — TransportCtx is a trio of Arc handles (meter + pool + telemetry)
        conn.ctx = self.ctx.clone();
        // The pending half was built with a throwaway ctx, so its stats
        // cell mirrors nothing; rebind it to the real telemetry. Nothing
        // has been counted yet (the handshake happens after accept).
        conn.rebind_telemetry();
        Ok(conn)
    }

    fn endpoint(&self) -> (String, u16) {
        ("sim".to_string(), self.port)
    }
}

impl Drop for SimListener {
    fn drop(&mut self) {
        self.network.unlisten(self.port);
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
/// NIC, one frame queue per lane. The sender pushes a batch of frames —
/// a window of a copied block, all the page frames of a zero-copy one, the
/// single frame of a small control message — under one lock and with at
/// most one wake-up; the receiver takes everything that has arrived for
/// the lane it wants in one swap. A batch is a *delivery* unit only:
/// faults, frame indices, stamps and counters stay per frame, and a block
/// may span any number of batches.
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
    deadline: Option<Instant>,
    block_id: u64,
    total: usize,
    got: usize,
    frames: usize,
    /// Put-on-wire stamp of the first fragment (`0`: untraced sender).
    sent_ns: u64,
}

impl Incoming {
    fn is_whole(&self) -> bool {
        self.frames > 0 && self.got >= self.total
    }

    /// Count `f` in as the block's next fragment; a frame that cannot
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
        if self.frames > 0 && f.payload.is_empty() {
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
        self.frames += 1;
        Ok(())
    }

    /// Take the block's next fragment out of `inbox`, if the block is still
    /// short of fragments and one is at hand.
    fn next_fragment(&mut self, inbox: &mut VecDeque<Frame>) -> TResult<Option<Frame>> {
        if self.is_whole() {
            return Ok(None);
        }
        let next = inbox.pop_front();
        next.iter().try_for_each(|f| self.claim(f))?;
        Ok(next)
    }
}

/// The conventional stack's receiving end of one block: the socket buffer
/// — a window's worth of kernel memory, like the sender's — that fragments
/// are defragmented into, and the user buffer `read()` empties it into
/// while the bytes are still in cache.
struct Reassembly {
    socket_buf: PooledBuf,
    user_buf: PooledBuf,
    /// Bytes `..read` of the block are in `user_buf`, `read..in_order` in
    /// `socket_buf`.
    read: usize,
    in_order: usize,
    /// Fragments that arrived ahead of their turn (a `delay_frame` fault
    /// reorders): they wait, as frames, until the gap before them closes.
    early: Vec<Frame>,
}

impl Reassembly {
    fn new(pool: &PagePool, total: usize, window: usize) -> Reassembly {
        let room = window.min(total).max(1);
        let mut socket_buf = pool.acquire(room);
        socket_buf.set_len(room);
        let mut user_buf = pool.acquire(total.max(1));
        user_buf.set_len(total);
        Reassembly {
            socket_buf,
            user_buf,
            read: 0,
            in_order: 0,
            early: Vec::new(),
        }
    }

    /// Defragmentation: copy `frame`'s fragment off the receive ring into
    /// the socket buffer if it is the next in order — and then any early
    /// one it makes room for — or queue it.
    fn defragment(
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
            if span.end - self.read > self.socket_buf.len() {
                self.read_out(meter)?;
            }
            // A fragment larger than the whole socket buffer has no place
            // in it.
            let at = (span.start - self.read) as u64;
            let room = checked_span(at, len, self.socket_buf.len())?;
            copy(
                &mut self.socket_buf.as_mut_slice()[room],
                f.payload.as_slice(),
            );
            self.in_order = span.end;
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
        let held = self.in_order.saturating_sub(self.read);
        let unread = checked_span(self.read as u64, held, self.user_buf.len())?;
        if held > 0 {
            self.read = unread.end;
            meter.copy(
                CopyLayer::SocketRecv,
                &mut self.user_buf.as_mut_slice()[unread],
                &self.socket_buf.as_slice()[..held],
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

/// The fragments of a whole block, where they came off the wire: the first
/// so many frames of a lane's inbox.
#[derive(Clone, Copy)]
struct BlockFrames<'a>(&'a VecDeque<Frame>, usize);

impl<'a> BlockFrames<'a> {
    fn iter(self) -> vec_deque::Iter<'a, Frame> {
        self.0.range(..self.1)
    }
}

/// Cursor over a gather list: the bytes `write()` has not taken yet.
struct Gather<'a> {
    head: &'a [u8],
    rest: std::slice::Iter<'a, &'a [u8]>,
}

impl<'a> Gather<'a> {
    fn new(parts: &'a [&'a [u8]]) -> Gather<'a> {
        Gather {
            head: &[],
            rest: parts.iter(),
        }
    }

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
    tx: Arc<Wire>,
    rx: Arc<Wire>,
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
    #[allow(clippy::too_many_arguments)]
    fn new(
        peer: String,
        cfg: SimConfig,
        ctx: TransportCtx,
        tx: Arc<Wire>,
        rx: Arc<Wire>,
        seed_salt: u64,
        is_client: bool,
        faults: Arc<FaultState>,
    ) -> SimConn {
        let stats = StatsCell::with_telemetry(ctx.conn_mirror());
        let fault_gen = faults.generation.load(Ordering::Acquire);
        let active_plan = *faults.plan.lock();
        SimConn {
            peer,
            cfg,
            ctx,
            tx,
            rx,
            staged: Lanes::default(),
            inbox: Lanes::default(),
            next_block_id: 0,
            rng: StdRng::seed_from_u64(cfg.seed ^ seed_salt.wrapping_mul(0x9E37_79B9_7F4A_7C15)),
            stats,
            recv_timeout: None,
            trace_conn: zc_trace::next_conn_id(),
            is_client,
            faults,
            active_plan,
            fault_gen,
            frames_since_fault: 0,
            wire_cut: false,
            delayed: None,
            fault_rng: StdRng::seed_from_u64(
                cfg.seed ^ seed_salt.rotate_left(17) ^ 0xFA17_FA17_FA17_FA17,
            ),
        }
    }

    fn from_half(h: PendingHalf, ctx: TransportCtx) -> SimConn {
        SimConn::new(h.peer, h.cfg, ctx, h.tx, h.rx, h.seed_salt, false, h.faults)
    }

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

    /// Sever this endpoint's outgoing wire: the peer drains what was
    /// already delivered, then observes [`TransportError::Closed`].
    fn cut(&mut self) {
        self.wire_cut = true;
        self.tx.close();
        self.delayed = None;
    }

    /// Rebuild the stats cell against the (possibly replaced) context's
    /// telemetry. Only valid while all counters are still zero.
    fn rebind_telemetry(&mut self) {
        self.stats = StatsCell::with_telemetry(self.ctx.conn_mirror());
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

    /// Send one block whose fragments, each `(offset, payload)`, cost the
    /// sender no per-byte work: every one run through the live fault plan,
    /// all handed over as one batch.
    fn send_block(
        &mut self,
        lane: Lane,
        total_len: usize,
        fragments: impl Iterator<Item = (usize, FramePayload)>,
    ) -> TResult<()> {
        let block = self.begin_block(lane, total_len)?;
        for (offset, payload) in fragments {
            self.stage_frame(block, offset, payload)?;
        }
        self.put_on_wire()
    }

    /// Run one fragment of `block` through the live fault plan and stage
    /// its frame for the next hand-off.
    fn stage_frame(
        &mut self,
        block: Outgoing,
        offset: usize,
        payload: FramePayload,
    ) -> TResult<()> {
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
                // The frames before the cut made it onto the wire.
                let _ = self.put_on_wire();
                self.cut();
                return Err(TransportError::Closed);
            }
            if plan.corrupt_frame == Some(n) && self.take_trip() {
                Self::corrupt_payload(&mut frame);
            }
            if plan.truncate_frame == Some(n) && self.take_trip() {
                Self::truncate_payload(&mut frame);
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
        for f in self.staged.control.iter().chain(&self.staged.data) {
            frames += 1;
            wire_bytes += f.wire_bytes() as u64;
        }
        if frames == 0 {
            // The only frame is being held back by `delay_frame`.
            return Ok(());
        }
        self.stats.add(TransportField::FramesSent, frames);
        self.stats.add(TransportField::WireBytesSent, wire_bytes);
        self.tx.push_batch(&mut self.staged)
    }

    /// Flip bits in the frame payload. The payload may reference the
    /// sender's live pages, so corruption first detaches the frame into a
    /// private buffer — the injector must never scribble on application
    /// memory.
    fn corrupt_payload(frame: &mut Frame) {
        // zc-audit: allow(copy) — fault injector detaches the frame before flipping bits; wire damage on the KernelFrag-sized fragment, not a data-path copy
        let mut bytes = frame.payload.as_slice().to_vec();
        if let Some(b) = bytes.first_mut() {
            *b ^= 0xFF;
        }
        for b in bytes.iter_mut().skip(1).step_by(97) {
            *b ^= 0xA5;
        }
        frame.payload = FramePayload::Copied(bytes);
    }

    /// Shorten the frame payload without touching the announced block
    /// length: downstream sees a fragment stream that can never complete.
    fn truncate_payload(frame: &mut Frame) {
        let len = frame.payload.len();
        if len == 0 {
            return;
        }
        let keep = len / 2;
        frame.payload = match &frame.payload {
            FramePayload::Referenced(z) => FramePayload::Referenced(z.slice(0..keep)),
            // zc-audit: allow(copy) — injected wire truncation rebuilds the shortened KernelFrag-sized fragment, fault path only
            FramePayload::Copied(v) => FramePayload::Copied(v[..keep].to_vec()),
        };
    }

    /// The conventional send path, cut through a window at a time: the
    /// window's bytes cross user→kernel, are fragmented with a copy per
    /// frame, and go on the wire before the next window is touched — the
    /// peer defragments window *n* while this end copies window *n + 1*.
    fn send_bytes_copying(&mut self, lane: Lane, parts: &[&[u8]]) -> TResult<()> {
        let total: usize = parts.iter().map(|p| p.len()).sum();
        if total == 0 {
            let empty = std::iter::once((0, FramePayload::Copied(Vec::new())));
            return self.send_block(lane, 0, empty);
        }
        let block = self.begin_block(lane, total)?;
        let (mtu, window) = (self.cfg.mtu_payload, self.window_bytes());
        let mut parts = Gather::new(parts);
        // The socket buffer: one window's worth, refilled per window.
        let mut kernel_buf = self.ctx.pool.acquire(total.min(window));
        for at in (0..total).step_by(window) {
            let len = (total - at).min(window);
            kernel_buf.set_len(len);
            parts.copy_to(&self.ctx.meter, kernel_buf.as_mut_slice());
            // Driver fragmentation: header insertion forces a copy of
            // every fragment. One pass lays the window's fragments out in
            // a pooled slab, and each frame references its share of it.
            let mut slab = self.ctx.pool.acquire(len);
            slab.set_len(len);
            self.ctx.meter.copy_run(CopyLayer::KernelFrag, |copy| {
                for (frag, src) in slab
                    .as_mut_slice()
                    .chunks_mut(mtu)
                    .zip(kernel_buf.as_slice().chunks(mtu))
                {
                    copy(frag, src);
                }
            });
            let slab = slab.freeze();
            for frag in (0..len).step_by(mtu) {
                let payload = FramePayload::Referenced(slab.slice(frag..len.min(frag + mtu)));
                self.stage_frame(block, at + frag, payload)?;
            }
            self.put_on_wire()?;
        }
        Ok(())
    }

    /// The zero-copy send path for data blocks: page-granular referenced
    /// fragments, no byte touched.
    fn send_block_zero_copy(&mut self, block: &ZcBytes) -> TResult<()> {
        if block.is_empty() {
            let empty = std::iter::once((0, FramePayload::Copied(Vec::new())));
            return self.send_block(Lane::Data, 0, empty);
        }
        let pages = block
            .chunks(PAGE_SIZE)
            .enumerate()
            .map(|(i, page)| (i * PAGE_SIZE, FramePayload::Referenced(page)));
        self.send_block(Lane::Data, block.len(), pages)
    }

    /// Take what has arrived on `lane` off the wire, waiting for it if
    /// nothing has. Wire bytes are accounted as they leave the wire.
    fn fetch(&mut self, lane: Lane, deadline: Option<Instant>) -> TResult<()> {
        let inbox = self.inbox.of(lane);
        let had = inbox.len();
        self.rx.drain_into(lane, inbox, deadline)?;
        let wire_bytes: u64 = inbox.range(had..).map(|f| f.wire_bytes() as u64).sum();
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
                    deadline,
                    block_id: first.block_id,
                    total: checked_block_len(first.total_len, first.block_id)?,
                    got: 0,
                    frames: 0,
                    sent_ns: first.sent_ns,
                });
            }
            self.fetch(lane, deadline)?;
        }
    }

    /// Bytes the copying stack copies, and hands over, at a time.
    fn window_bytes(&self) -> usize {
        WINDOW_FRAMES.saturating_mul(self.cfg.mtu_payload)
    }

    /// The conventional receive path, trailing the sender: fragments are
    /// defragmented into the socket buffer as they come off the wire, and
    /// `read()` out of it whenever it fills or the wire runs dry.
    fn recv_copying(&mut self, block: &mut Incoming) -> TResult<ZcBytes> {
        let mut asm = Reassembly::new(&self.ctx.pool, block.total, self.window_bytes());
        loop {
            let (inbox, meter) = (self.inbox.of(block.lane), &self.ctx.meter);
            meter.copy_run(CopyLayer::KernelDefrag, |copy| -> TResult<()> {
                while let Some(f) = block.next_fragment(inbox)? {
                    asm.defragment(f, copy, meter)?;
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

    /// The zero-copy stack's receive: the fragments stay where they came
    /// off the wire until all of the block's have, are handed to
    /// `reassemble` together, and are let go.
    fn recv_in_place<R>(
        &mut self,
        block: &mut Incoming,
        reassemble: impl FnOnce(&mut SimConn, BlockFrames<'_>) -> TResult<R>,
    ) -> TResult<R> {
        loop {
            for f in self.inbox.of(block.lane).range(block.frames..) {
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
        let mut inbox = std::mem::take(self.inbox.of(block.lane));
        let whole = reassemble(self, BlockFrames(&inbox, block.frames));
        inbox.drain(..block.frames);
        *self.inbox.of(block.lane) = inbox;
        whole
    }

    /// Copy a block's fragments, each to its offset, into one pooled
    /// buffer, metered at `layer`.
    fn copy_out(
        &self,
        frames: BlockFrames<'_>,
        total: usize,
        layer: CopyLayer,
    ) -> TResult<PooledBuf> {
        // Every allocation clamps locally (wire-taint invariant), however
        // the announced length was vetted on the way here.
        let total = total.min(MAX_SIM_BLOCK_BYTES as usize);
        let mut buf = self.ctx.pool.acquire(total.max(1));
        buf.set_len(total);
        self.ctx.meter.copy_run(layer, |copy| -> TResult<()> {
            for f in frames.iter() {
                let payload = f.payload.as_slice();
                let span = checked_span(f.offset, payload.len(), total)?;
                copy(&mut buf.as_mut_slice()[span], payload);
            }
            Ok(())
        })?;
        Ok(buf)
    }

    /// The zero-copy receive path: speculate that fragments landed in place.
    fn reassemble_zero_copy(&mut self, frames: BlockFrames<'_>, total: usize) -> TResult<ZcBytes> {
        if total == 0 {
            return Ok(ZcBytes::empty());
        }
        self.refresh_fault_plan();
        let plan = self.active_plan;
        // The speculation draw always happens (keeps `rng`'s stream, and
        // therefore every fault-free experiment, unchanged); an injected
        // miss only overrides a draw that would have succeeded.
        let mut speculation_ok = self.rng.gen::<f64>() < self.cfg.zc_success_prob;
        if speculation_ok
            && plan.spec_miss_prob > 0.0
            && plan.applies_to(self.is_client)
            && self.fault_rng.gen::<f64>() < plan.spec_miss_prob
        {
            speculation_ok = false;
        }
        if speculation_ok {
            let pages = || {
                frames.iter().filter_map(|f| match &f.payload {
                    FramePayload::Referenced(z) => Some(z),
                    FramePayload::Copied(_) => None,
                })
            };
            // A fragment the wire damaged was detached from the sender's
            // pages and cannot land in place. Nor can a block that does not
            // start on a page boundary: the speculative-defragmentation
            // hardware places payload at page granularity (paper [10];
            // ablation A2 exercises exactly this constraint).
            let referenced = pages().count() == frames.iter().len();
            let aligned = pages().next().is_some_and(|p| p.is_page_aligned());
            if referenced && aligned {
                if let Some(joined) = ZcBytes::join_contiguous(pages()) {
                    self.stats.speculated(true, self.trace_conn, total as u64);
                    return Ok(joined);
                }
            }
        }
        // Speculation miss: the driver falls back to copying the fragments
        // into a fresh page-aligned buffer.
        self.stats.speculated(false, self.trace_conn, total as u64);
        Ok(self
            .copy_out(frames, total, CopyLayer::DepositFallback)?
            .freeze())
    }
}

impl Drop for SimConn {
    fn drop(&mut self) {
        // The peer drains what was delivered, then sees `Closed`; its own
        // sends fail from now on.
        self.tx.close();
        self.rx.close();
    }
}

impl Connection for SimConn {
    fn send_control_vectored(&mut self, parts: &[&[u8]]) -> TResult<()> {
        let total: usize = parts.iter().map(|p| p.len()).sum();
        self.stats.add(TransportField::ControlSent, 1);
        self.stats.add(TransportField::BytesSent, total as u64);
        match self.cfg.mode {
            StackMode::Copying => self.send_bytes_copying(Lane::Control, parts),
            StackMode::ZeroCopy => {
                // The zero-copy stack still moves control messages through
                // the socket (one metered copy into a pooled page), but
                // skips the fragmentation machinery: one frame.
                let mut framed = self.ctx.pool.acquire(total.max(1));
                framed.set_len(total);
                Gather::new(parts).copy_to(&self.ctx.meter, framed.as_mut_slice());
                let frame = std::iter::once((0, FramePayload::Referenced(framed.freeze())));
                self.send_block(Lane::Control, total, frame)
            }
        }
    }

    fn recv_control(&mut self) -> TResult<ZcBytes> {
        let mut block = self.open_block(Lane::Control)?;
        let total = block.total;
        let msg = match self.cfg.mode {
            StackMode::Copying => self.recv_copying(&mut block)?,
            StackMode::ZeroCopy => self
                .recv_in_place(&mut block, |conn, frames| {
                    conn.copy_out(frames, total, CopyLayer::SocketRecv)
                })?
                .freeze(),
        };
        self.stats.add(TransportField::ControlRecv, 1);
        self.stats.add(TransportField::BytesRecv, msg.len() as u64);
        Ok(msg)
    }

    fn send_data(&mut self, block: &ZcBytes) -> TResult<()> {
        self.stats.add(TransportField::DataBlocksSent, 1);
        self.stats
            .add(TransportField::BytesSent, block.len() as u64);
        match self.cfg.mode {
            StackMode::Copying => self.send_bytes_copying(Lane::Data, &[block.as_slice()]),
            StackMode::ZeroCopy => self.send_block_zero_copy(block),
        }
    }

    fn recv_data(&mut self, expected_len: usize) -> TResult<ZcBytes> {
        let mut block = self.open_block(Lane::Data)?;
        let total = block.total;
        if total != expected_len {
            return Err(WireViolation::BlockLenMismatch {
                announced: expected_len,
                got: total,
            }
            .into());
        }
        let data = match self.cfg.mode {
            StackMode::Copying => self.recv_copying(&mut block)?,
            StackMode::ZeroCopy => self.recv_in_place(&mut block, |conn, frames| {
                conn.reassemble_zero_copy(frames, total)
            })?,
        };
        // Fragments per block, and the data-path flight time from the
        // block's put-on-wire stamp (both ends share the trace clock).
        self.ctx
            .telemetry
            .note_data_block(block.frames as u64, block.sent_ns);
        self.stats.add(TransportField::DataBlocksRecv, 1);
        self.stats.add(TransportField::BytesRecv, data.len() as u64);
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
            payload: FramePayload::Copied(vec![0u8; 16]),
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
        let wire = Arc::<Wire>::default();
        let conn = SimConn::new(
            "sim:test#fed".to_string(),
            cfg,
            TransportCtx::new(),
            Arc::default(),
            Arc::clone(&wire),
            7,
            false,
            Arc::default(),
        );
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
                        payload: FramePayload::Copied(vec![i as u8; 8]),
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
            payload: FramePayload::Copied(vec![1u8; len]),
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
}
