//! # xdr — External Data Representation (RFC 4506)
//!
//! The wire encoding under ONC RPC and NFSv3. Minimal but faithful:
//! big-endian 4-byte alignment, fixed/variable opaque, strings, arrays,
//! optional data. Both RPC headers and NFS arguments/results in this
//! workspace round-trip through these codecs, so protocol tests
//! exercise real marshalling, not struct copies.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use bytes::Bytes;
use core::fmt;
use std::cell::RefCell;

/// Decoding errors.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum XdrError {
    /// Input ended before the value was complete.
    Truncated,
    /// A length prefix exceeded the decoder's sanity limit.
    LengthOutOfRange(u32),
    /// A discriminant had no defined arm.
    BadDiscriminant(u32),
    /// Padding bytes were non-zero.
    BadPadding,
    /// A string was not valid UTF-8.
    BadUtf8,
}

impl fmt::Display for XdrError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            XdrError::Truncated => write!(f, "truncated XDR input"),
            XdrError::LengthOutOfRange(n) => write!(f, "XDR length {n} out of range"),
            XdrError::BadDiscriminant(d) => write!(f, "unknown XDR discriminant {d}"),
            XdrError::BadPadding => write!(f, "non-zero XDR padding"),
            XdrError::BadUtf8 => write!(f, "invalid UTF-8 in XDR string"),
        }
    }
}

impl std::error::Error for XdrError {}

/// Result alias for decoding.
pub type Result<T> = std::result::Result<T, XdrError>;

/// Streaming XDR encoder.
///
/// ```
/// use xdr::{Encoder, Decoder};
/// let mut enc = Encoder::new();
/// enc.put_u32(7).put_string("hello").put_opaque(&[1, 2, 3]);
/// let mut dec = Decoder::new(enc.as_slice());
/// assert_eq!(dec.get_u32().unwrap(), 7);
/// assert_eq!(dec.get_string().unwrap(), "hello");
/// assert_eq!(&dec.get_opaque().unwrap()[..], &[1, 2, 3]);
/// dec.expect_end().unwrap();
/// ```
///
/// A dropped or finished encoder leaves its buffer to the thread's next
/// [`Encoder::new`], so once warm, `new()` … [`Encoder::finish`] is one
/// allocation: the returned `Bytes`.
#[derive(Default)]
pub struct Encoder {
    buf: Vec<u8>,
}

/// How many buffers a thread keeps (encoders nest: a reply body inside
/// a directory listing) and the largest worth keeping.
const SPARE_BUFS: usize = 4;
const SPARE_CAPACITY: usize = 64 << 10;

thread_local! {
    static SPARE: RefCell<Vec<Vec<u8>>> = const { RefCell::new(Vec::new()) };
}

impl Drop for Encoder {
    fn drop(&mut self) {
        let mut buf = std::mem::take(&mut self.buf);
        if buf.capacity() == 0 || buf.capacity() > SPARE_CAPACITY {
            return;
        }
        buf.clear();
        // Gone with an exiting thread's locals: just free the buffer.
        let _ = SPARE.try_with(|spare| {
            let mut spare = spare.borrow_mut();
            if spare.len() < SPARE_BUFS {
                spare.push(buf);
            }
        });
    }
}

impl Encoder {
    /// Empty encoder.
    pub fn new() -> Self {
        let spare = SPARE.try_with(|spare| spare.borrow_mut().pop());
        Encoder {
            buf: spare.ok().flatten().unwrap_or_default(),
        }
    }

    /// Encoder with reserved capacity.
    pub fn with_capacity(n: usize) -> Self {
        let mut enc = Encoder::new();
        enc.buf.reserve(n);
        enc
    }

    /// Clear the encoder for reuse, keeping its capacity. A scratch
    /// encoder held per connection makes steady-state encoding
    /// allocation-free.
    pub fn reset(&mut self) {
        self.buf.clear();
    }

    /// The bytes encoded so far, borrowed. Pair with [`Encoder::reset`]
    /// to reuse one buffer across messages; use [`Encoder::finish`]
    /// only when an owned `Bytes` is genuinely needed.
    pub fn as_slice(&self) -> &[u8] {
        &self.buf
    }

    /// Finish and take the encoded bytes.
    pub fn finish(self) -> Bytes {
        Bytes::copy_from_slice(&self.buf)
    }

    /// Current encoded length.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True if nothing has been encoded.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Drop everything encoded past `len` bytes: take back an item that
    /// turned out not to fit a size-bounded message.
    pub fn truncate(&mut self, len: usize) {
        self.buf.truncate(len);
    }

    /// Encode an unsigned 32-bit integer.
    pub fn put_u32(&mut self, v: u32) -> &mut Self {
        self.buf.extend_from_slice(&v.to_be_bytes());
        self
    }

    /// Encode a signed 32-bit integer.
    pub fn put_i32(&mut self, v: i32) -> &mut Self {
        self.put_u32(v as u32)
    }

    /// Encode an unsigned 64-bit integer (hyper).
    pub fn put_u64(&mut self, v: u64) -> &mut Self {
        self.buf.extend_from_slice(&v.to_be_bytes());
        self
    }

    /// Encode a signed 64-bit integer.
    pub fn put_i64(&mut self, v: i64) -> &mut Self {
        self.put_u64(v as u64)
    }

    /// Encode a boolean.
    pub fn put_bool(&mut self, v: bool) -> &mut Self {
        self.put_u32(v as u32)
    }

    /// Append raw bytes with no length prefix or padding. Not an XDR
    /// primitive: used to assemble wire messages (header + body) in one
    /// reusable buffer.
    pub fn put_raw(&mut self, data: &[u8]) -> &mut Self {
        self.buf.extend_from_slice(data);
        self
    }

    /// Encode fixed-length opaque data (padded to 4 bytes).
    pub fn put_opaque_fixed(&mut self, data: &[u8]) -> &mut Self {
        self.buf.extend_from_slice(data);
        self.pad(data.len());
        self
    }

    /// Encode variable-length opaque data (length prefix + padding).
    pub fn put_opaque(&mut self, data: &[u8]) -> &mut Self {
        self.put_u32(data.len() as u32);
        self.put_opaque_fixed(data)
    }

    /// Encode a string.
    pub fn put_string(&mut self, s: &str) -> &mut Self {
        self.put_opaque(s.as_bytes())
    }

    /// Encode an optional value (`*T` in XDR language).
    pub fn put_option<T>(&mut self, v: Option<&T>, f: impl FnOnce(&mut Self, &T)) -> &mut Self {
        match v {
            Some(inner) => {
                self.put_bool(true);
                f(self, inner);
            }
            None => {
                self.put_bool(false);
            }
        }
        self
    }

    /// Encode a counted array.
    pub fn put_array<T>(&mut self, items: &[T], mut f: impl FnMut(&mut Self, &T)) -> &mut Self {
        self.put_u32(items.len() as u32);
        for item in items {
            f(self, item);
        }
        self
    }

    fn pad(&mut self, len: usize) {
        for _ in 0..(4 - len % 4) % 4 {
            self.buf.push(0);
        }
    }
}

/// Streaming XDR decoder borrowing its input.
///
/// Borrowing (rather than owning a `Bytes`) keeps decoding
/// allocation- and refcount-free: `get_opaque` returns a subslice of
/// the input. A caller that must keep decoded payload bytes alive
/// beyond the input borrow re-anchors the subslice with
/// [`Bytes::slice_ref`], which is still zero-copy.
pub struct Decoder<'a> {
    buf: &'a [u8],
    pos: usize,
}

/// Sanity cap for length prefixes: 64 MiB, checked before anything is
/// sized by a length read from the input.
const MAX_LEN: u32 = 64 << 20;

impl<'a> Decoder<'a> {
    /// Decode from `buf`. Accepts `&Bytes` via deref coercion.
    pub fn new(buf: &'a [u8]) -> Self {
        Decoder { buf, pos: 0 }
    }

    /// Bytes remaining.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Current read offset.
    pub fn position(&self) -> usize {
        self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        if self.remaining() < n {
            return Err(XdrError::Truncated);
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Decode an unsigned 32-bit integer.
    pub fn get_u32(&mut self) -> Result<u32> {
        let b = self.take(4)?;
        Ok(u32::from_be_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Decode a signed 32-bit integer.
    pub fn get_i32(&mut self) -> Result<i32> {
        Ok(self.get_u32()? as i32)
    }

    /// Decode an unsigned 64-bit integer.
    pub fn get_u64(&mut self) -> Result<u64> {
        let b = self.take(8)?;
        let mut a = [0u8; 8];
        a.copy_from_slice(b);
        Ok(u64::from_be_bytes(a))
    }

    /// Decode a signed 64-bit integer.
    pub fn get_i64(&mut self) -> Result<i64> {
        Ok(self.get_u64()? as i64)
    }

    /// Decode a boolean (strict: only 0/1 accepted).
    pub fn get_bool(&mut self) -> Result<bool> {
        match self.get_u32()? {
            0 => Ok(false),
            1 => Ok(true),
            d => Err(XdrError::BadDiscriminant(d)),
        }
    }

    /// Decode fixed-length opaque data, borrowed from the input.
    pub fn get_opaque_fixed(&mut self, len: usize) -> Result<&'a [u8]> {
        let out = self.take(len)?;
        let pad = (4 - len % 4) % 4;
        let padding = self.take(pad)?;
        if padding.iter().any(|&b| b != 0) {
            return Err(XdrError::BadPadding);
        }
        Ok(out)
    }

    /// Decode variable-length opaque data, borrowed from the input.
    pub fn get_opaque(&mut self) -> Result<&'a [u8]> {
        let len = self.get_u32()?;
        if len > MAX_LEN {
            return Err(XdrError::LengthOutOfRange(len));
        }
        self.get_opaque_fixed(len as usize)
    }

    /// Decode a string.
    pub fn get_string(&mut self) -> Result<String> {
        let raw = self.get_opaque()?;
        match std::str::from_utf8(raw) {
            Ok(s) => Ok(s.to_owned()),
            Err(_) => Err(XdrError::BadUtf8),
        }
    }

    /// Decode an optional value.
    pub fn get_option<T>(&mut self, f: impl FnOnce(&mut Self) -> Result<T>) -> Result<Option<T>> {
        if self.get_bool()? {
            Ok(Some(f(self)?))
        } else {
            Ok(None)
        }
    }

    /// Decode a counted array.
    pub fn get_array<T>(&mut self, mut f: impl FnMut(&mut Self) -> Result<T>) -> Result<Vec<T>> {
        let n = self.get_u32()?;
        if n > MAX_LEN {
            return Err(XdrError::LengthOutOfRange(n));
        }
        // Each element is at least 4 bytes; cheap pre-check against
        // absurd counts on short input.
        if (n as usize).saturating_mul(4) > self.remaining() {
            return Err(XdrError::Truncated);
        }
        let mut out = Vec::with_capacity(n as usize);
        for _ in 0..n {
            out.push(f(self)?);
        }
        Ok(out)
    }

    /// Assert the input is fully consumed.
    pub fn expect_end(&self) -> Result<()> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(XdrError::LengthOutOfRange(self.remaining() as u32))
        }
    }
}

/// Types that marshal to/from XDR.
pub trait XdrCodec: Sized {
    /// Append this value to the encoder.
    fn encode(&self, enc: &mut Encoder);
    /// Parse a value from the decoder.
    fn decode(dec: &mut Decoder<'_>) -> Result<Self>;

    /// Encode into a reusable scratch encoder: resets it (keeping
    /// capacity), then appends. Steady state performs zero heap
    /// allocations once the scratch has grown to the message size.
    fn encode_into(&self, enc: &mut Encoder) {
        enc.reset();
        self.encode(enc);
    }

    /// Convenience: encode to fresh bytes. Allocates; hot paths should
    /// prefer [`XdrCodec::encode_into`] with a per-connection scratch.
    fn to_bytes(&self) -> Bytes {
        let mut enc = Encoder::new();
        self.encode(&mut enc);
        enc.finish()
    }

    /// Convenience: decode from borrowed bytes, requiring full
    /// consumption. Accepts `&Bytes` via deref coercion.
    fn from_bytes(buf: &[u8]) -> Result<Self> {
        let mut dec = Decoder::new(buf);
        let v = Self::decode(&mut dec)?;
        dec.expect_end()?;
        Ok(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn integers_roundtrip() {
        let mut e = Encoder::new();
        e.put_u32(0xdead_beef)
            .put_i32(-7)
            .put_u64(0x0123_4567_89ab_cdef)
            .put_i64(-99)
            .put_bool(true)
            .put_bool(false);
        let mut d = Decoder::new(e.as_slice());
        assert_eq!(d.get_u32().unwrap(), 0xdead_beef);
        assert_eq!(d.get_i32().unwrap(), -7);
        assert_eq!(d.get_u64().unwrap(), 0x0123_4567_89ab_cdef);
        assert_eq!(d.get_i64().unwrap(), -99);
        assert!(d.get_bool().unwrap());
        assert!(!d.get_bool().unwrap());
        d.expect_end().unwrap();
    }

    #[test]
    fn opaque_padding_is_4_byte_aligned() {
        for len in 0..9usize {
            let data: Vec<u8> = (0..len as u8).collect();
            let mut e = Encoder::new();
            e.put_opaque(&data);
            assert_eq!(e.len() % 4, 0, "len {len} not aligned");
            let mut d = Decoder::new(e.as_slice());
            assert_eq!(d.get_opaque().unwrap(), &data[..]);
            d.expect_end().unwrap();
        }
    }

    #[test]
    fn nonzero_padding_rejected() {
        let mut e = Encoder::new();
        e.put_opaque(b"abc"); // 1 pad byte
        let mut raw = e.finish().to_vec();
        *raw.last_mut().unwrap() = 0xFF;
        let mut d = Decoder::new(&raw);
        assert_eq!(d.get_opaque().unwrap_err(), XdrError::BadPadding);
    }

    #[test]
    fn strings_roundtrip_and_reject_bad_utf8() {
        let mut e = Encoder::new();
        e.put_string("héllo wörld");
        let mut d = Decoder::new(e.as_slice());
        assert_eq!(d.get_string().unwrap(), "héllo wörld");

        let mut e = Encoder::new();
        e.put_opaque(&[0xff, 0xfe]);
        let mut d = Decoder::new(e.as_slice());
        assert_eq!(d.get_string().unwrap_err(), XdrError::BadUtf8);
    }

    #[test]
    fn options_roundtrip() {
        let mut e = Encoder::new();
        e.put_option(Some(&42u32), |e, v| {
            e.put_u32(*v);
        });
        e.put_option(None::<&u32>, |e, v| {
            e.put_u32(*v);
        });
        let mut d = Decoder::new(e.as_slice());
        assert_eq!(d.get_option(|d| d.get_u32()).unwrap(), Some(42));
        assert_eq!(d.get_option(|d| d.get_u32()).unwrap(), None);
    }

    #[test]
    fn arrays_roundtrip() {
        let items = vec![1u32, 2, 3, 4, 5];
        let mut e = Encoder::new();
        e.put_array(&items, |e, v| {
            e.put_u32(*v);
        });
        let mut d = Decoder::new(e.as_slice());
        assert_eq!(d.get_array(|d| d.get_u32()).unwrap(), items);
    }

    #[test]
    fn truncated_inputs_error_not_panic() {
        let mut e = Encoder::new();
        e.put_u64(7);
        let full = e.finish();
        for cut in 0..full.len() {
            let mut d = Decoder::new(&full[..cut]);
            assert_eq!(d.get_u64().unwrap_err(), XdrError::Truncated);
        }
    }

    #[test]
    fn absurd_array_count_rejected_quickly() {
        let mut e = Encoder::new();
        e.put_u32(u32::MAX); // count
        let mut d = Decoder::new(e.as_slice());
        let r: Result<Vec<u32>> = d.get_array(|d| d.get_u32());
        assert!(r.is_err());
    }

    #[test]
    fn oversize_opaque_rejected() {
        let mut e = Encoder::new();
        e.put_u32(100 << 20);
        let mut d = Decoder::new(e.as_slice());
        assert!(matches!(
            d.get_opaque().unwrap_err(),
            XdrError::LengthOutOfRange(_)
        ));
    }

    #[test]
    fn bool_discriminant_strictness() {
        let mut e = Encoder::new();
        e.put_u32(2);
        let mut d = Decoder::new(e.as_slice());
        assert_eq!(d.get_bool().unwrap_err(), XdrError::BadDiscriminant(2));
    }

    #[test]
    fn position_tracking() {
        let mut e = Encoder::new();
        e.put_u32(1).put_u64(2);
        let mut d = Decoder::new(e.as_slice());
        assert_eq!(d.position(), 0);
        d.get_u32().unwrap();
        assert_eq!(d.position(), 4);
        assert_eq!(d.remaining(), 8);
    }
}
