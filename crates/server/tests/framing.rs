//! Adversarial-chunking property tests for the framed protocol reader.
//!
//! The reader pool extracts request frames from a reusable scratch buffer
//! ([`FrameBuf`]) instead of the old line-at-a-time `BufRead::lines()`
//! loop. TCP makes no promises about chunk boundaries — a frame can
//! arrive split across many reads or coalesced with its neighbors — so
//! these properties pin that **any** chunking of a byte stream decodes to
//! exactly the frame sequence `lines()` would produce, including the
//! `\r\n` strip, the unterminated final line at EOF, and the
//! drop-connection error on non-UTF-8 frames. Frames past
//! [`MAX_FRAME_BYTES`] are refused however they arrive.

use mfbo_server::{FrameBuf, FrameError, MAX_FRAME_BYTES};
use proptest::prelude::*;
use std::io::{BufRead, BufReader, Read};

/// What `BufRead::lines()` — the pre-scratch-buffer reader — yields for
/// `bytes`: the decoded lines, and whether it hit a non-UTF-8 error (at
/// which point the old serve loop dropped the connection).
fn lines_reference(bytes: &[u8]) -> (Vec<String>, bool) {
    let mut out = Vec::new();
    for line in BufReader::new(bytes).lines() {
        match line {
            Ok(l) => out.push(l),
            Err(_) => return (out, true),
        }
    }
    (out, false)
}

/// Decodes `bytes` through a [`FrameBuf`] fed by `push` in the given
/// chunk sizes (cycled, clamped to the remainder).
fn decode_pushed(bytes: &[u8], chunks: &[usize]) -> (Vec<String>, bool) {
    let mut fb = FrameBuf::new();
    let mut out = Vec::new();
    let mut pos = 0;
    let mut ci = 0;
    while pos < bytes.len() {
        let n = chunks
            .get(ci % chunks.len().max(1))
            .copied()
            .unwrap_or(1)
            .max(1)
            .min(bytes.len() - pos);
        ci += 1;
        fb.push(&bytes[pos..pos + n]);
        pos += n;
        loop {
            match fb.next_frame() {
                None => break,
                Some(Ok(s)) => out.push(s.to_string()),
                Some(Err(_)) => return (out, true),
            }
        }
    }
    match fb.take_tail() {
        None => (out, false),
        Some(Ok(s)) => {
            out.push(s.to_string());
            (out, false)
        }
        Some(Err(_)) => (out, true),
    }
}

/// A reader that returns data in prescribed chunk sizes — the socket-side
/// adversary for [`FrameBuf::read_from`].
struct ChunkedReader<'a> {
    data: &'a [u8],
    chunks: &'a [usize],
    next: usize,
}

impl Read for ChunkedReader<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        if self.data.is_empty() {
            return Ok(0);
        }
        let want = self
            .chunks
            .get(self.next % self.chunks.len().max(1))
            .copied()
            .unwrap_or(1)
            .max(1);
        self.next += 1;
        let n = want.min(self.data.len()).min(buf.len());
        buf[..n].copy_from_slice(&self.data[..n]);
        self.data = &self.data[n..];
        Ok(n)
    }
}

/// Decodes `bytes` through [`FrameBuf::read_from`] — the exact code path
/// the reader pool runs against sockets.
fn decode_read(bytes: &[u8], chunks: &[usize]) -> (Vec<String>, bool) {
    let mut fb = FrameBuf::new();
    let mut out = Vec::new();
    let mut r = ChunkedReader {
        data: bytes,
        chunks,
        next: 0,
    };
    loop {
        match fb.read_from(&mut r) {
            Ok(0) => break,
            Ok(_) => loop {
                match fb.next_frame() {
                    None => break,
                    Some(Ok(s)) => out.push(s.to_string()),
                    Some(Err(_)) => return (out, true),
                }
            },
            Err(_) => unreachable!("ChunkedReader never errors"),
        }
    }
    match fb.take_tail() {
        None => (out, false),
        Some(Ok(s)) => {
            out.push(s.to_string());
            (out, false)
        }
        Some(Err(_)) => (out, true),
    }
}

proptest! {
    /// Well-formed text split at arbitrary points: every chunking decodes
    /// to exactly what `lines()` yields — `\n` and `\r\n` terminators,
    /// empty lines, and an optional unterminated tail included.
    #[test]
    fn any_chunking_of_text_matches_line_at_a_time(
        lines in prop::collection::vec(
            (prop::collection::vec(32u32..127, 0..20), 0u32..3),
            0..12,
        ),
        chunks in prop::collection::vec(1usize..17, 1..8),
    ) {
        let mut bytes = Vec::new();
        for (content, term) in &lines {
            bytes.extend(content.iter().map(|&c| c as u8));
            match term {
                0 => bytes.push(b'\n'),
                1 => bytes.extend_from_slice(b"\r\n"),
                // 2 = unterminated; anything after it merges into one
                // frame, exactly as a line reader would see it.
                _ => {}
            }
        }
        let want = lines_reference(&bytes);
        prop_assert_eq!(&decode_pushed(&bytes, &chunks), &want);
        prop_assert_eq!(&decode_read(&bytes, &chunks), &want);
    }

    /// Arbitrary bytes — including invalid UTF-8 and embedded `\r` — under
    /// arbitrary chunking: the frame sequence and the error (drop the
    /// connection) decision both match `lines()`.
    #[test]
    fn arbitrary_bytes_decode_like_line_at_a_time(
        raw in prop::collection::vec(0u32..256, 0..200),
        chunks in prop::collection::vec(1usize..33, 1..8),
    ) {
        let bytes: Vec<u8> = raw.iter().map(|&b| b as u8).collect();
        let want = lines_reference(&bytes);
        prop_assert_eq!(&decode_pushed(&bytes, &chunks), &want);
        prop_assert_eq!(&decode_read(&bytes, &chunks), &want);
    }
}

/// The scratch buffer is reusable: pushing many frames through one
/// [`FrameBuf`] must not grow it past one read chunk plus the largest
/// frame — the consumed prefix is reclaimed between fills.
#[test]
fn scratch_buffer_stays_bounded() {
    let mut fb = FrameBuf::new();
    let frame = b"{\"op\":\"status\",\"run\":\"throughput-probe\"}\n";
    let mut decoded = 0usize;
    for _ in 0..10_000 {
        fb.push(frame);
        while let Some(f) = fb.next_frame() {
            assert!(f.is_ok());
            decoded += 1;
        }
    }
    assert_eq!(decoded, 10_000);
    assert!(
        fb.capacity() <= 16 * 1024,
        "scratch grew unbounded: {} bytes",
        fb.capacity()
    );
}

/// A frame at the cap decodes; one byte more is refused — unterminated
/// (without waiting for a newline that may never come), terminated in one
/// push, or as the tail at EOF.
#[test]
fn frames_over_the_cap_are_refused() {
    let at_cap = vec![b'a'; MAX_FRAME_BYTES];
    let mut fb = FrameBuf::new();
    fb.push(&at_cap);
    assert_eq!(fb.next_frame(), None);
    fb.push(b"\n");
    assert_eq!(fb.next_frame().unwrap().unwrap().len(), MAX_FRAME_BYTES);

    fb.push(&at_cap);
    assert_eq!(fb.take_tail().unwrap().unwrap().len(), MAX_FRAME_BYTES);

    let mut unterminated = FrameBuf::new();
    unterminated.push(&at_cap);
    unterminated.push(b"a");
    assert_eq!(unterminated.next_frame(), Some(Err(FrameError::TooLong)));
    assert_eq!(unterminated.take_tail(), Some(Err(FrameError::TooLong)));

    let mut terminated = FrameBuf::new();
    terminated.push(b"{}\n");
    terminated.push(&at_cap);
    terminated.push(b"a\n");
    assert_eq!(terminated.next_frame(), Some(Ok("{}")));
    assert_eq!(terminated.next_frame(), Some(Err(FrameError::TooLong)));
}
