//! The CDR encoder.

use std::sync::Arc;

use zc_buffers::{CopyLayer, CopyMeter, ZcBytes};

use crate::endian::{self, ByteOrder};

/// Encodes values into a CDR stream.
///
/// Alignment is computed relative to the start of the encoder's buffer,
/// which in GIOP corresponds to the first byte after the 12-byte message
/// header (the header itself is laid out so that the body starts 8-aligned)
/// — or, while an encapsulation is being written, to its first byte.
///
/// The encoder carries the two pieces of per-connection context the paper's
/// optimization needs:
///
/// * an optional [`CopyMeter`] so that *bulk* payload copies performed by
///   standard `sequence<octet>` marshaling are accounted at
///   [`CopyLayer::Marshal`];
/// * a `zc_enabled` flag plus an out-of-band *deposit list*: when the
///   connection negotiated direct deposit, [`crate::ZcOctetSeq`] marshaling
///   pushes its payload here instead of copying it into the stream.
pub struct CdrEncoder {
    buf: Vec<u8>,
    /// Offset in `buf` that alignment counts from: 0, or the start of the
    /// encapsulation being written.
    origin: usize,
    order: ByteOrder,
    meter: Option<Arc<CopyMeter>>,
    zc_enabled: bool,
    deposits: Vec<ZcBytes>,
}

impl CdrEncoder {
    /// New encoder writing in `order`.
    pub fn new(order: ByteOrder) -> CdrEncoder {
        CdrEncoder {
            buf: Vec::new(),
            origin: 0,
            order,
            meter: None,
            zc_enabled: false,
            deposits: Vec::new(),
        }
    }

    /// New encoder in native order (the common homogeneous-cluster case).
    pub fn native() -> CdrEncoder {
        CdrEncoder::new(ByteOrder::native())
    }

    /// Attach a copy meter; bulk octet writes will be accounted on it.
    pub fn with_meter(mut self, meter: Arc<CopyMeter>) -> CdrEncoder {
        self.meter = Some(meter);
        self
    }

    /// Encode into `buf` (cleared first) instead of a fresh vector, so a
    /// connection can lend the buffer its previous message finished with
    /// and a steady stream of messages stops allocating marshal space.
    pub fn with_buffer(mut self, mut buf: Vec<u8>) -> CdrEncoder {
        buf.clear();
        self.buf = buf;
        self
    }

    /// Likewise collect deposits into `list`'s storage (cleared first).
    pub fn with_deposit_room(mut self, mut list: Vec<ZcBytes>) -> CdrEncoder {
        list.clear();
        self.deposits = list;
        self
    }

    /// Enable the direct-deposit path for zero-copy sequence types.
    pub fn with_zc(mut self, enabled: bool) -> CdrEncoder {
        self.zc_enabled = enabled;
        self
    }

    /// The stream's byte order.
    pub fn order(&self) -> ByteOrder {
        self.order
    }

    /// Whether `ZcOctetSeq` values will take the deposit path.
    pub fn zc_enabled(&self) -> bool {
        self.zc_enabled
    }

    /// Bytes encoded so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been encoded yet.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Number of deposited out-of-band blocks so far.
    pub fn deposit_count(&self) -> usize {
        self.deposits.len()
    }

    /// Insert padding so the next write lands on an `n`-byte boundary.
    pub fn align(&mut self, n: usize) {
        debug_assert!(n.is_power_of_two() && n <= 8);
        let misalign = (self.buf.len() - self.origin) % n;
        if misalign != 0 {
            // CDR padding octets have unspecified value; we use zero.
            self.buf.resize(self.buf.len() + (n - misalign), 0);
        }
    }

    /// Append raw bytes with neither alignment nor metering. Protocol
    /// headers and pre-encoded encapsulations use this.
    pub fn write_raw(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// `octet`
    pub fn write_octet(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// `boolean` (encoded as one octet, 0 or 1)
    pub fn write_bool(&mut self, v: bool) {
        self.buf.push(v as u8);
    }

    /// `char` (single-byte code point on the wire)
    pub fn write_char(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// `short`
    pub fn write_i16(&mut self, v: i16) {
        self.align(2);
        self.buf
            .extend_from_slice(&endian::write_i16(self.order, v));
    }

    /// `unsigned short`
    pub fn write_u16(&mut self, v: u16) {
        self.align(2);
        self.buf
            .extend_from_slice(&endian::write_u16(self.order, v));
    }

    /// `long`
    pub fn write_i32(&mut self, v: i32) {
        self.align(4);
        self.buf
            .extend_from_slice(&endian::write_i32(self.order, v));
    }

    /// `unsigned long`
    pub fn write_u32(&mut self, v: u32) {
        self.align(4);
        self.buf
            .extend_from_slice(&endian::write_u32(self.order, v));
    }

    /// `long long`
    pub fn write_i64(&mut self, v: i64) {
        self.align(8);
        self.buf
            .extend_from_slice(&endian::write_i64(self.order, v));
    }

    /// `unsigned long long`
    pub fn write_u64(&mut self, v: u64) {
        self.align(8);
        self.buf
            .extend_from_slice(&endian::write_u64(self.order, v));
    }

    /// `float`
    pub fn write_f32(&mut self, v: f32) {
        self.align(4);
        self.buf
            .extend_from_slice(&endian::write_f32(self.order, v));
    }

    /// `double`
    pub fn write_f64(&mut self, v: f64) {
        self.align(8);
        self.buf
            .extend_from_slice(&endian::write_f64(self.order, v));
    }

    /// `string`: ulong length (including the terminating NUL), the UTF-8
    /// bytes, then NUL.
    pub fn write_string(&mut self, s: &str) {
        self.write_u32((s.len() + 1) as u32);
        self.buf.extend_from_slice(s.as_bytes());
        self.buf.push(0);
    }

    /// Bulk octet write: ulong count followed by the raw bytes. This is the
    /// copying path of `sequence<octet>` — the copy is metered at
    /// [`CopyLayer::Marshal`] because it is precisely the overhead the
    /// paper's `TCSeqOctet::marshal` loop incurs. The bytes are appended
    /// once; nothing zero-fills the space first.
    pub fn write_octet_seq(&mut self, bytes: &[u8]) {
        self.write_u32(bytes.len() as u32);
        self.buf.extend_from_slice(bytes);
        if let Some(m) = &self.meter {
            m.record(CopyLayer::Marshal, bytes.len());
        }
    }

    /// Register an out-of-band deposit block; returns its descriptor index.
    /// Only legal on a ZC-negotiated stream.
    ///
    /// No payload bytes are touched: the `ZcBytes` is moved (reference
    /// counted) onto the deposit list for the connection layer to hand to
    /// the data channel.
    pub fn push_deposit(&mut self, block: ZcBytes) -> u32 {
        debug_assert!(self.zc_enabled, "deposit on a non-ZC stream");
        let idx = self.deposits.len() as u32;
        self.deposits.push(block);
        idx
    }

    /// Encode a nested *encapsulation*: a length-prefixed, independently
    /// aligned CDR stream starting with its own endianness octet. Used for
    /// IOR profile bodies and service-context data.
    pub fn write_encapsulation(&mut self, f: impl FnOnce(&mut CdrEncoder)) {
        self.write_encapsulation_in(self.order, f)
    }

    /// [`CdrEncoder::write_encapsulation`] in a byte order of its own
    /// choosing (an encapsulation announces its order, so it need not be
    /// the stream's). Written in place: for the duration of `f` this
    /// encoder *is* the nested stream — alignment counts from the
    /// encapsulation's first byte, bulk writes are not metered, ZC types
    /// marshal inline — and the length prefix is filled in afterwards.
    ///
    /// # Panics
    /// If `f` pushes a deposit.
    pub fn write_encapsulation_in(&mut self, order: ByteOrder, f: impl FnOnce(&mut CdrEncoder)) {
        self.write_u32(0); // the length, once it is known
        let start = self.buf.len();
        let outer = (self.origin, self.order, self.zc_enabled, self.meter.take());
        (self.origin, self.order, self.zc_enabled) = (start, order, false);
        self.write_octet(order.flag() as u8);
        let deposits = self.deposits.len();
        f(self);
        assert!(
            self.deposits.len() == deposits,
            "deposits are not allowed inside encapsulations"
        );
        (self.origin, self.order, self.zc_enabled, self.meter) = outer;
        self.patch_u32(start - 4, (self.buf.len() - start) as u32);
    }

    /// Overwrite the `unsigned long` at byte offset `at` (which a
    /// `write_u32` put there): for counts known only once the elements
    /// that follow them are written.
    ///
    /// # Panics
    /// If no four bytes were written at `at`.
    pub fn patch_u32(&mut self, at: usize, v: u32) {
        let slot = self.buf.iter_mut().skip(at).take(4);
        assert!(slot.len() == 4, "patch_u32 outside the encoded stream");
        for (byte, new) in slot.zip(endian::write_u32(self.order, v)) {
            *byte = new;
        }
    }

    /// Finish encoding: the CDR stream plus the deposit list.
    pub fn finish(self) -> (Vec<u8>, Vec<ZcBytes>) {
        (self.buf, self.deposits)
    }

    /// Finish encoding a stream that cannot carry deposits.
    ///
    /// # Panics
    /// If deposits were pushed.
    pub fn finish_stream(self) -> Vec<u8> {
        assert!(self.deposits.is_empty(), "unexpected deposits");
        self.buf
    }

    /// Peek at the encoded bytes (primarily for tests).
    pub fn as_slice(&self) -> &[u8] {
        &self.buf
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alignment_inserts_padding() {
        let mut e = CdrEncoder::new(ByteOrder::Big);
        e.write_octet(1);
        e.write_u32(2); // needs 3 pad bytes
        assert_eq!(e.as_slice(), &[1, 0, 0, 0, 0, 0, 0, 2]);
    }

    #[test]
    fn no_padding_when_aligned() {
        let mut e = CdrEncoder::new(ByteOrder::Big);
        e.write_u32(7);
        e.write_u32(8);
        assert_eq!(e.len(), 8);
    }

    #[test]
    fn eight_byte_alignment() {
        let mut e = CdrEncoder::new(ByteOrder::Big);
        e.write_u32(1);
        e.write_f64(2.0); // pads to offset 8
        assert_eq!(e.len(), 16);
        assert_eq!(&e.as_slice()[8..], &2.0f64.to_be_bytes());
    }

    #[test]
    fn string_layout() {
        let mut e = CdrEncoder::new(ByteOrder::Big);
        e.write_string("hi");
        assert_eq!(e.as_slice(), &[0, 0, 0, 3, b'h', b'i', 0]);
    }

    #[test]
    fn octet_seq_meters_marshal_copy() {
        let m = CopyMeter::new_shared();
        let mut e = CdrEncoder::new(ByteOrder::Little).with_meter(Arc::clone(&m));
        e.write_octet_seq(&[9; 1000]);
        assert_eq!(m.bytes(CopyLayer::Marshal), 1000);
        assert_eq!(e.len(), 4 + 1000);
    }

    #[test]
    fn deposit_does_not_touch_payload_or_meter() {
        let m = CopyMeter::new_shared();
        let mut e = CdrEncoder::new(ByteOrder::Little)
            .with_meter(Arc::clone(&m))
            .with_zc(true);
        let block = ZcBytes::zeroed(1 << 20);
        let idx = e.push_deposit(block.clone());
        assert_eq!(idx, 0);
        assert_eq!(e.deposit_count(), 1);
        assert_eq!(m.snapshot().total_bytes(), 0, "no copy performed");
        let (_, deposits) = e.finish();
        assert!(deposits[0].ptr_eq(&block), "same storage, zero copies");
    }

    #[test]
    fn encapsulation_has_own_alignment_and_flag() {
        let mut e = CdrEncoder::new(ByteOrder::Little);
        e.write_octet(0xAA); // misalign the outer stream
        e.write_encapsulation(|inner| {
            inner.write_u32(0x11223344);
        });
        let b = e.finish_stream();
        // outer: octet, pad to 4, ulong length, then encapsulated bytes
        assert_eq!(b[0], 0xAA);
        let len = u32::from_le_bytes(b[4..8].try_into().unwrap()) as usize;
        let encap = &b[8..8 + len];
        assert_eq!(encap[0], 1, "little-endian flag octet");
        // inner alignment is relative to the encapsulation start: flag octet
        // then 3 pad bytes then the ulong.
        assert_eq!(&encap[4..8], &0x11223344u32.to_le_bytes());
    }

    #[test]
    #[should_panic(expected = "unexpected deposits")]
    fn finish_stream_rejects_deposits() {
        let mut e = CdrEncoder::native().with_zc(true);
        e.push_deposit(ZcBytes::zeroed(8));
        let _ = e.finish_stream();
    }
}
