//! The CDR decoder.

use std::sync::Arc;

use zc_buffers::{CopyLayer, CopyMeter, ZcBytes};

use crate::endian::{self, ByteOrder};
use crate::{CdrError, CdrResult, MAX_CDR_LENGTH};

/// The blocks one received message deposited, in descriptor-index order,
/// each taken at most once. The first block is held inline, so a message
/// with one block costs no heap; the rest spill to one vector.
#[derive(Debug, Default)]
pub struct DepositList {
    /// Block 0's slot, once there is a block 0.
    first: Option<Option<ZcBytes>>,
    rest: Vec<Option<ZcBytes>>,
}

impl DepositList {
    /// An empty list with room for `count` blocks: heap only past the first.
    pub fn for_blocks(count: usize) -> DepositList {
        DepositList {
            first: None,
            rest: Vec::with_capacity(count.saturating_sub(1)),
        }
    }

    /// Append the next block.
    pub fn add_block(&mut self, block: ZcBytes) {
        match self.first {
            None => self.first = Some(Some(block)),
            Some(_) => self.rest.push(Some(block)),
        }
    }

    /// The slot of block `index`: `None` past the end, empty once taken.
    fn slot_mut(&mut self, index: usize) -> Option<&mut Option<ZcBytes>> {
        match index.checked_sub(1) {
            None => self.first.as_mut(),
            Some(i) => self.rest.get_mut(i),
        }
    }
}

/// Decodes values from a CDR stream.
///
/// Mirrors [`crate::CdrEncoder`]: alignment is relative to the start of the
/// buffer, every read is bounds-checked, and the decoder optionally carries
/// the blocks that the transport *deposited* out of band so that
/// [`crate::ZcOctetSeq`] demarshaling can resolve descriptor indices without
/// copying ("a pointer is set to this buffer allowing the demarshaling
/// routine to directly access the data and pass it further without copying",
/// §4.5).
pub struct CdrDecoder<'a> {
    buf: &'a [u8],
    pos: usize,
    order: ByteOrder,
    meter: Option<Arc<CopyMeter>>,
    /// Out-of-band blocks, taken by index exactly once each.
    deposits: DepositList,
    zc_enabled: bool,
}

impl<'a> CdrDecoder<'a> {
    /// Decode `buf`, which was encoded in `order`.
    pub fn new(buf: &'a [u8], order: ByteOrder) -> CdrDecoder<'a> {
        CdrDecoder {
            buf,
            pos: 0,
            order,
            meter: None,
            deposits: DepositList::default(),
            zc_enabled: false,
        }
    }

    /// Attach a copy meter; bulk octet reads are accounted at
    /// [`CopyLayer::Demarshal`].
    pub fn with_meter(mut self, meter: Arc<CopyMeter>) -> CdrDecoder<'a> {
        self.meter = Some(meter);
        self
    }

    /// Provide the deposited blocks for this message and enable the
    /// zero-copy demarshal path.
    pub fn with_deposits(self, blocks: Vec<ZcBytes>) -> CdrDecoder<'a> {
        let mut list = DepositList::for_blocks(blocks.len());
        blocks.into_iter().for_each(|b| list.add_block(b));
        self.with_deposit_list(list)
    }

    /// [`CdrDecoder::with_deposits`] from a [`DepositList`] — as received,
    /// or partly taken when demarshaling resumes across several decoders
    /// over the same message (multi-result replies).
    pub fn with_deposit_list(mut self, list: DepositList) -> CdrDecoder<'a> {
        self.deposits = list;
        self.zc_enabled = true;
        self
    }

    /// Surrender the deposit list (taken blocks stay taken, so descriptor
    /// indices remain stable for a follow-up decoder).
    pub fn into_deposit_list(self) -> DepositList {
        self.deposits
    }

    /// The stream's byte order.
    pub fn order(&self) -> ByteOrder {
        self.order
    }

    /// Whether the deposit path is active for this message.
    pub fn zc_enabled(&self) -> bool {
        self.zc_enabled
    }

    /// Current read offset.
    pub fn position(&self) -> usize {
        self.pos
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// The stream from its first byte up to the cursor.
    pub fn consumed(&self) -> &'a [u8] {
        self.buf.get(..self.pos).unwrap_or(self.buf)
    }

    fn take(&mut self, n: usize) -> CdrResult<&'a [u8]> {
        // Overflow-proof and panic-free: `checked_add` guards the cursor
        // arithmetic and `get` turns any out-of-window read into an error,
        // so no length field in the stream can reach a slice panic.
        let buf = self.buf;
        let s = self
            .pos
            .checked_add(n)
            .and_then(|end| buf.get(self.pos..end))
            .ok_or(CdrError::OutOfBounds {
                need: n,
                have: self.remaining(),
            })?;
        self.pos = self.pos.saturating_add(n);
        Ok(s)
    }

    /// Borrow the next `n` raw bytes without alignment or metering.
    pub fn read_raw(&mut self, n: usize) -> CdrResult<&'a [u8]> {
        self.take(n)
    }

    /// Skip `n` bytes (e.g. to resume after an already-parsed header while
    /// keeping alignment relative to the buffer start).
    pub fn skip(&mut self, n: usize) -> CdrResult<()> {
        self.take(n)?;
        Ok(())
    }

    /// Skip padding so the next read is `n`-aligned.
    pub fn align(&mut self, n: usize) -> CdrResult<()> {
        debug_assert!(n.is_power_of_two() && n <= 8);
        let misalign = self.pos % n;
        if misalign != 0 {
            self.take(n - misalign)?;
        }
        Ok(())
    }

    /// `octet`
    pub fn read_octet(&mut self) -> CdrResult<u8> {
        Ok(self.take(1)?[0])
    }

    /// `boolean`
    pub fn read_bool(&mut self) -> CdrResult<bool> {
        match self.take(1)?[0] {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(CdrError::InvalidBool(b)),
        }
    }

    /// `char`
    pub fn read_char(&mut self) -> CdrResult<u8> {
        Ok(self.take(1)?[0])
    }

    /// `short`
    pub fn read_i16(&mut self) -> CdrResult<i16> {
        self.align(2)?;
        Ok(endian::read_i16(self.order, self.take(2)?))
    }

    /// `unsigned short`
    pub fn read_u16(&mut self) -> CdrResult<u16> {
        self.align(2)?;
        Ok(endian::read_u16(self.order, self.take(2)?))
    }

    /// `long`
    pub fn read_i32(&mut self) -> CdrResult<i32> {
        self.align(4)?;
        Ok(endian::read_i32(self.order, self.take(4)?))
    }

    /// `unsigned long`
    pub fn read_u32(&mut self) -> CdrResult<u32> {
        self.align(4)?;
        Ok(endian::read_u32(self.order, self.take(4)?))
    }

    /// `long long`
    pub fn read_i64(&mut self) -> CdrResult<i64> {
        self.align(8)?;
        Ok(endian::read_i64(self.order, self.take(8)?))
    }

    /// `unsigned long long`
    pub fn read_u64(&mut self) -> CdrResult<u64> {
        self.align(8)?;
        Ok(endian::read_u64(self.order, self.take(8)?))
    }

    /// `float`
    pub fn read_f32(&mut self) -> CdrResult<f32> {
        self.align(4)?;
        Ok(endian::read_f32(self.order, self.take(4)?))
    }

    /// `double`
    pub fn read_f64(&mut self) -> CdrResult<f64> {
        self.align(8)?;
        Ok(endian::read_f64(self.order, self.take(8)?))
    }

    /// Validate a length/count field against [`MAX_CDR_LENGTH`] and the
    /// bytes actually remaining (when each element is at least one byte).
    fn checked_len(&self, n: u32, min_elem_bytes: usize) -> CdrResult<usize> {
        let n64 = n as u64;
        if n64 > MAX_CDR_LENGTH {
            return Err(CdrError::LengthOverflow(n64));
        }
        let n = n as usize;
        if min_elem_bytes > 0 && n.saturating_mul(min_elem_bytes) > self.remaining() {
            return Err(CdrError::OutOfBounds {
                need: n.saturating_mul(min_elem_bytes),
                have: self.remaining(),
            });
        }
        Ok(n)
    }

    /// `string`: ulong length including NUL, UTF-8 bytes, NUL.
    pub fn read_string(&mut self) -> CdrResult<String> {
        self.read_str().map(str::to_owned)
    }

    /// A `string` read in place: the characters stay in the stream.
    pub fn read_str(&mut self) -> CdrResult<&'a str> {
        let len = self.read_u32()?;
        let len = self.checked_len(len, 1)?;
        // A zero length is malformed (even "" encodes as length 1).
        match self.take(len)?.split_last() {
            Some((0, chars)) => std::str::from_utf8(chars).map_err(|_| CdrError::InvalidString),
            _ => Err(CdrError::InvalidString),
        }
    }

    /// Bulk octet read: ulong count then the raw bytes, copied out once (and
    /// metered at [`CopyLayer::Demarshal`]) — the conventional
    /// `sequence<octet>` path. The allocation is sized by bytes in hand and
    /// filled by the copy itself; nothing zero-fills it first.
    pub fn read_octet_seq(&mut self) -> CdrResult<Vec<u8>> {
        let src = self.read_octet_seq_borrowed()?;
        self.meter_demarshal(src.len());
        Ok(src.to_vec())
    }

    /// [`CdrDecoder::read_octet_seq`] into page-aligned storage: the inline
    /// fallback of `sequence<ZC_Octet>` for peers without the deposit path.
    /// One copy out of the receive buffer, metered at
    /// [`CopyLayer::Demarshal`].
    pub fn read_octet_seq_aligned(&mut self) -> CdrResult<ZcBytes> {
        let src = self.read_octet_seq_borrowed()?;
        self.meter_demarshal(src.len());
        Ok(ZcBytes::from_aligned(zc_buffers::AlignedBuf::from_slice(
            src,
        )))
    }

    fn meter_demarshal(&self, bytes: usize) {
        if let Some(m) = &self.meter {
            m.record(CopyLayer::Demarshal, bytes);
        }
    }

    /// Borrow a bulk octet region without copying (used where the caller can
    /// work in place on the receive buffer).
    pub fn read_octet_seq_borrowed(&mut self) -> CdrResult<&'a [u8]> {
        let len = self.read_u32()?;
        let len = self.checked_len(len, 1)?;
        self.take(len)
    }

    /// Resolve a deposit descriptor: take block `index`, checking the
    /// announced length. Each block may be taken exactly once.
    pub fn take_deposit(&mut self, index: u32, announced_len: usize) -> CdrResult<ZcBytes> {
        let slot = self
            .deposits
            .slot_mut(index as usize)
            .ok_or(CdrError::BadDepositIndex(index))?;
        match slot.take() {
            Some(block) if block.len() == announced_len => Ok(block),
            Some(block) => {
                // Leave the block in place: a length mismatch is a protocol
                // error, not a consumption.
                let deposited = block.len();
                *slot = Some(block);
                Err(CdrError::DepositLengthMismatch {
                    announced: announced_len,
                    deposited,
                })
            }
            None => Err(CdrError::BadDepositIndex(index)),
        }
    }

    /// Decode a nested encapsulation: reads the ulong length, then hands a
    /// sub-decoder (with the encapsulation's own byte order and alignment
    /// origin) to `f`.
    pub fn read_encapsulation<T>(
        &mut self,
        f: impl FnOnce(&mut CdrDecoder<'_>) -> CdrResult<T>,
    ) -> CdrResult<T> {
        let len = self.read_u32()?;
        let len = self.checked_len(len, 1)?;
        let body = self.take(len)?;
        if body.is_empty() {
            return Err(CdrError::OutOfBounds { need: 1, have: 0 });
        }
        let order = ByteOrder::from_flag(body[0] & 1 == 1);
        let mut inner = CdrDecoder::new(body, order);
        // Consume the flag octet so inner alignment matches the encoder.
        inner.read_octet()?;
        f(&mut inner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encode::CdrEncoder;

    #[test]
    fn primitive_roundtrip_both_orders() {
        for order in [ByteOrder::Big, ByteOrder::Little] {
            let mut e = CdrEncoder::new(order);
            e.write_octet(7);
            e.write_bool(true);
            e.write_i16(-2);
            e.write_u32(0xDEAD_BEEF);
            e.write_f64(-2.75);
            e.write_i64(i64::MIN);
            e.write_string("héllo");
            let bytes = e.finish_stream();

            let mut d = CdrDecoder::new(&bytes, order);
            assert_eq!(d.read_octet().unwrap(), 7);
            assert!(d.read_bool().unwrap());
            assert_eq!(d.read_i16().unwrap(), -2);
            assert_eq!(d.read_u32().unwrap(), 0xDEAD_BEEF);
            assert_eq!(d.read_f64().unwrap(), -2.75);
            assert_eq!(d.read_i64().unwrap(), i64::MIN);
            assert_eq!(d.read_string().unwrap(), "héllo");
            assert_eq!(d.remaining(), 0);
        }
    }

    #[test]
    fn out_of_bounds_reported() {
        let mut d = CdrDecoder::new(&[1, 2], ByteOrder::Big);
        assert_eq!(
            d.read_u32(),
            Err(CdrError::OutOfBounds { need: 4, have: 2 })
        );
    }

    #[test]
    fn invalid_bool_rejected() {
        let mut d = CdrDecoder::new(&[2], ByteOrder::Big);
        assert_eq!(d.read_bool(), Err(CdrError::InvalidBool(2)));
    }

    #[test]
    fn string_missing_nul_rejected() {
        // length 2, bytes "ab" (no NUL)
        let mut d = CdrDecoder::new(&[0, 0, 0, 2, b'a', b'b'], ByteOrder::Big);
        assert_eq!(d.read_string(), Err(CdrError::InvalidString));
    }

    #[test]
    fn string_invalid_utf8_rejected() {
        let mut d = CdrDecoder::new(&[0, 0, 0, 2, 0xFF, 0], ByteOrder::Big);
        assert_eq!(d.read_string(), Err(CdrError::InvalidString));
    }

    #[test]
    fn length_overflow_rejected() {
        // ulong length = u32::MAX
        let mut d = CdrDecoder::new(&[0xFF; 8], ByteOrder::Big);
        assert!(matches!(d.read_string(), Err(CdrError::LengthOverflow(_))));
    }

    #[test]
    fn hostile_seq_length_does_not_allocate() {
        // count = 0x3FFFFFFF (within MAX) but buffer has 4 bytes: must fail
        // with OutOfBounds *before* allocating gigabytes.
        let mut bytes = 0x3FFF_FFFFu32.to_be_bytes().to_vec();
        bytes.extend_from_slice(&[0, 0, 0, 0]);
        let mut d = CdrDecoder::new(&bytes, ByteOrder::Big);
        assert!(matches!(
            d.read_octet_seq(),
            Err(CdrError::OutOfBounds { .. })
        ));
    }

    #[test]
    fn octet_seq_roundtrip_meters_both_sides() {
        let m = CopyMeter::new_shared();
        let payload: Vec<u8> = (0..5000).map(|i| (i % 256) as u8).collect();
        let mut e = CdrEncoder::new(ByteOrder::Little).with_meter(Arc::clone(&m));
        e.write_octet_seq(&payload);
        let bytes = e.finish_stream();
        let mut d = CdrDecoder::new(&bytes, ByteOrder::Little).with_meter(Arc::clone(&m));
        let back = d.read_octet_seq().unwrap();
        assert_eq!(back, payload);
        assert_eq!(m.bytes(CopyLayer::Marshal), 5000);
        assert_eq!(m.bytes(CopyLayer::Demarshal), 5000);
    }

    #[test]
    fn borrowed_octet_seq_does_not_meter() {
        let m = CopyMeter::new_shared();
        let mut e = CdrEncoder::new(ByteOrder::Little);
        e.write_octet_seq(&[1, 2, 3]);
        let bytes = e.finish_stream();
        let mut d = CdrDecoder::new(&bytes, ByteOrder::Little).with_meter(Arc::clone(&m));
        assert_eq!(d.read_octet_seq_borrowed().unwrap(), &[1, 2, 3]);
        assert_eq!(m.bytes(CopyLayer::Demarshal), 0);
    }

    #[test]
    fn deposit_take_once_and_length_check() {
        let block = ZcBytes::zeroed(100);
        let mut d = CdrDecoder::new(&[], ByteOrder::Little).with_deposits(vec![block]);
        assert!(matches!(
            d.take_deposit(0, 99),
            Err(CdrError::DepositLengthMismatch { .. })
        ));
        let got = d.take_deposit(0, 100).unwrap();
        assert_eq!(got.len(), 100);
        // second take fails
        assert_eq!(d.take_deposit(0, 100), Err(CdrError::BadDepositIndex(0)));
        assert_eq!(d.take_deposit(5, 1), Err(CdrError::BadDepositIndex(5)));
    }

    #[test]
    fn deposit_list_holds_the_first_block_inline_and_spills_from_the_second() {
        let mut list = DepositList::for_blocks(1);
        list.add_block(ZcBytes::zeroed(1));
        assert!(list.first.is_some());
        assert_eq!(list.rest.capacity(), 0, "one block costs no heap");
        let mut list = DepositList::default();
        list.add_block(ZcBytes::zeroed(1));
        list.add_block(ZcBytes::zeroed(2));
        assert_eq!(list.rest.len(), 1, "the second block spills");
        assert_eq!(DepositList::for_blocks(3).rest.capacity(), 2);
    }

    #[test]
    fn deposit_indices_stay_stable_across_resumed_decoders() {
        let mut list = DepositList::for_blocks(3);
        for len in [10, 20, 30] {
            list.add_block(ZcBytes::zeroed(len));
        }
        let mut d = CdrDecoder::new(&[], ByteOrder::Little).with_deposit_list(list);
        assert_eq!(d.take_deposit(1, 20).unwrap().len(), 20);
        let list = d.into_deposit_list();
        let mut d = CdrDecoder::new(&[], ByteOrder::Little).with_deposit_list(list);
        assert_eq!(d.take_deposit(1, 20), Err(CdrError::BadDepositIndex(1)));
        assert_eq!(d.take_deposit(2, 30).unwrap().len(), 30);
        assert_eq!(d.take_deposit(0, 10).unwrap().len(), 10);
        assert_eq!(d.take_deposit(0, 10), Err(CdrError::BadDepositIndex(0)));
        assert_eq!(d.take_deposit(3, 1), Err(CdrError::BadDepositIndex(3)));
        let mut empty =
            CdrDecoder::new(&[], ByteOrder::Little).with_deposit_list(DepositList::default());
        assert_eq!(empty.take_deposit(0, 0), Err(CdrError::BadDepositIndex(0)));
    }

    #[test]
    fn encapsulation_roundtrip_cross_endian() {
        // Outer stream big-endian, inner encapsulation little-endian: the
        // flag octet must win.
        let mut inner_src = CdrEncoder::new(ByteOrder::Little);
        inner_src.write_octet(1); // LE flag
        inner_src.write_u32(0xCAFE_BABE);
        let inner_bytes = inner_src.finish_stream();

        let mut outer = CdrEncoder::new(ByteOrder::Big);
        outer.write_u32(inner_bytes.len() as u32);
        outer.write_raw(&inner_bytes);
        let bytes = outer.finish_stream();

        let mut d = CdrDecoder::new(&bytes, ByteOrder::Big);
        let v = d.read_encapsulation(|inner| inner.read_u32()).unwrap();
        assert_eq!(v, 0xCAFE_BABE);
    }

    #[test]
    fn alignment_skips_padding_on_read() {
        let mut e = CdrEncoder::new(ByteOrder::Big);
        e.write_octet(1);
        e.write_u32(42);
        let bytes = e.finish_stream();
        let mut d = CdrDecoder::new(&bytes, ByteOrder::Big);
        assert_eq!(d.read_octet().unwrap(), 1);
        assert_eq!(d.read_u32().unwrap(), 42);
    }
}
