//! The compact binary on-disk trace format.
//!
//! Layout: an 8-byte magic (`SMTXTRC` + format version byte) followed by a
//! flat sequence of events. Each event is a one-byte tag followed by its
//! fields as LEB128 varints, in the order the schema below fixes per tag.
//! Every field is an exact `u64` (booleans encode as 0/1), so encode →
//! decode is lossless for the full 64-bit range — the analyzer's integer
//! accounting depends on that.
//!
//! Writers that append run-by-run (the experiment runner) write the magic
//! once and then [`encode_body`] chunks; [`decode`] reads the magic and
//! then events until the buffer ends.

use smtx_core::{RaiseKind, RevertWhy, SquashCause, TraceEvent};

/// File magic: `SMTXTRC` plus a format-version byte.
pub const MAGIC: [u8; 8] = *b"SMTXTRC\x01";

const TAG_FETCH: u8 = 0;
const TAG_RENAME: u8 = 1;
const TAG_ISSUE: u8 = 2;
const TAG_WRITEBACK: u8 = 3;
const TAG_RETIRE: u8 = 4;
const TAG_SQUASH: u8 = 5;
const TAG_RAISE: u8 = 6;
const TAG_SPLICE_START: u8 = 7;
const TAG_SPLICE_END: u8 = 8;
const TAG_REVERT: u8 = 9;
const TAG_HANDLER_RETURN: u8 = 10;
const TAG_RUN_START: u8 = 11;
const TAG_END: u8 = 12;

fn put_varint(buf: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            buf.push(byte);
            return;
        }
        buf.push(byte | 0x80);
    }
}

fn get_varint(bytes: &[u8], pos: &mut usize) -> Result<u64, String> {
    let mut v: u64 = 0;
    let mut shift = 0u32;
    loop {
        let Some(&byte) = bytes.get(*pos) else {
            return Err("truncated varint".to_string());
        };
        *pos += 1;
        if shift == 63 && byte > 1 {
            return Err("varint overflows u64".to_string());
        }
        v |= u64::from(byte & 0x7f) << shift;
        if byte & 0x80 == 0 {
            return Ok(v);
        }
        shift += 7;
        if shift > 63 {
            return Err("varint overflows u64".to_string());
        }
    }
}

/// Appends one encoded event to `buf`.
pub fn encode_event(buf: &mut Vec<u8>, ev: &TraceEvent) {
    match *ev {
        TraceEvent::Fetch { cycle, tid, seq, pc, pal } => {
            buf.push(TAG_FETCH);
            for v in [cycle, tid, seq, pc, u64::from(pal)] {
                put_varint(buf, v);
            }
        }
        TraceEvent::Rename { cycle, tid, seq } => {
            buf.push(TAG_RENAME);
            for v in [cycle, tid, seq] {
                put_varint(buf, v);
            }
        }
        TraceEvent::Issue { cycle, tid, seq } => {
            buf.push(TAG_ISSUE);
            for v in [cycle, tid, seq] {
                put_varint(buf, v);
            }
        }
        TraceEvent::Writeback { cycle, tid, seq } => {
            buf.push(TAG_WRITEBACK);
            for v in [cycle, tid, seq] {
                put_varint(buf, v);
            }
        }
        TraceEvent::Retire { cycle, tid, seq, pc, pal } => {
            buf.push(TAG_RETIRE);
            for v in [cycle, tid, seq, pc, u64::from(pal)] {
                put_varint(buf, v);
            }
        }
        TraceEvent::Squash { cycle, tid, from_seq, cause, resume_pc } => {
            buf.push(TAG_SQUASH);
            for v in [cycle, tid, from_seq, cause.code(), resume_pc] {
                put_varint(buf, v);
            }
        }
        TraceEvent::Raise { cycle, tid, seq, kind, aux } => {
            buf.push(TAG_RAISE);
            for v in [cycle, tid, seq, kind.code(), aux] {
                put_varint(buf, v);
            }
        }
        TraceEvent::SpliceStart { cycle, handler_tid, master, exc_seq } => {
            buf.push(TAG_SPLICE_START);
            for v in [cycle, handler_tid, master, exc_seq] {
                put_varint(buf, v);
            }
        }
        TraceEvent::SpliceEnd { cycle, handler_tid, master, exc_seq, committed } => {
            buf.push(TAG_SPLICE_END);
            for v in [cycle, handler_tid, master, exc_seq, u64::from(committed)] {
                put_varint(buf, v);
            }
        }
        TraceEvent::Revert { cycle, tid, seq, pc, why } => {
            buf.push(TAG_REVERT);
            for v in [cycle, tid, seq, pc, why.code()] {
                put_varint(buf, v);
            }
        }
        TraceEvent::HandlerReturn { cycle, tid, pc } => {
            buf.push(TAG_HANDLER_RETURN);
            for v in [cycle, tid, pc] {
                put_varint(buf, v);
            }
        }
        TraceEvent::RunStart { kernel, seed, insts, digest } => {
            buf.push(TAG_RUN_START);
            for v in [kernel, seed, insts, digest] {
                put_varint(buf, v);
            }
        }
        TraceEvent::End { cycle } => {
            buf.push(TAG_END);
            put_varint(buf, cycle);
        }
    }
}

/// Encodes events without the file magic (an append chunk).
#[must_use]
pub fn encode_body(events: &[TraceEvent]) -> Vec<u8> {
    let mut buf = Vec::with_capacity(events.len() * 6);
    for ev in events {
        encode_event(&mut buf, ev);
    }
    buf
}

/// Encodes a complete trace file: magic plus every event.
#[must_use]
pub fn encode(events: &[TraceEvent]) -> Vec<u8> {
    let mut buf = Vec::with_capacity(8 + events.len() * 6);
    buf.extend_from_slice(&MAGIC);
    for ev in events {
        encode_event(&mut buf, ev);
    }
    buf
}

fn decode_event(bytes: &[u8], pos: &mut usize) -> Result<TraceEvent, String> {
    let tag = bytes[*pos];
    *pos += 1;
    let mut field = || get_varint(bytes, pos);
    match tag {
        TAG_FETCH => Ok(TraceEvent::Fetch {
            cycle: field()?,
            tid: field()?,
            seq: field()?,
            pc: field()?,
            pal: field()? != 0,
        }),
        TAG_RENAME => Ok(TraceEvent::Rename { cycle: field()?, tid: field()?, seq: field()? }),
        TAG_ISSUE => Ok(TraceEvent::Issue { cycle: field()?, tid: field()?, seq: field()? }),
        TAG_WRITEBACK => {
            Ok(TraceEvent::Writeback { cycle: field()?, tid: field()?, seq: field()? })
        }
        TAG_RETIRE => Ok(TraceEvent::Retire {
            cycle: field()?,
            tid: field()?,
            seq: field()?,
            pc: field()?,
            pal: field()? != 0,
        }),
        TAG_SQUASH => Ok(TraceEvent::Squash {
            cycle: field()?,
            tid: field()?,
            from_seq: field()?,
            cause: SquashCause::from_code(field()?).ok_or("bad squash cause")?,
            resume_pc: field()?,
        }),
        TAG_RAISE => Ok(TraceEvent::Raise {
            cycle: field()?,
            tid: field()?,
            seq: field()?,
            kind: RaiseKind::from_code(field()?).ok_or("bad raise kind")?,
            aux: field()?,
        }),
        TAG_SPLICE_START => Ok(TraceEvent::SpliceStart {
            cycle: field()?,
            handler_tid: field()?,
            master: field()?,
            exc_seq: field()?,
        }),
        TAG_SPLICE_END => Ok(TraceEvent::SpliceEnd {
            cycle: field()?,
            handler_tid: field()?,
            master: field()?,
            exc_seq: field()?,
            committed: field()? != 0,
        }),
        TAG_REVERT => Ok(TraceEvent::Revert {
            cycle: field()?,
            tid: field()?,
            seq: field()?,
            pc: field()?,
            why: RevertWhy::from_code(field()?).ok_or("bad revert reason")?,
        }),
        TAG_HANDLER_RETURN => {
            Ok(TraceEvent::HandlerReturn { cycle: field()?, tid: field()?, pc: field()? })
        }
        TAG_RUN_START => Ok(TraceEvent::RunStart {
            kernel: field()?,
            seed: field()?,
            insts: field()?,
            digest: field()?,
        }),
        TAG_END => Ok(TraceEvent::End { cycle: field()? }),
        other => Err(format!("unknown event tag {other}")),
    }
}

/// Decodes a complete trace file (magic checked).
pub fn decode(bytes: &[u8]) -> Result<Vec<TraceEvent>, String> {
    events(bytes)?.collect()
}

/// Decodes a trace file one event at a time (magic checked up front), so
/// [`crate::analyze`] can read it without holding every event. Stop at the
/// first `Err`: the bytes after it do not parse.
pub fn events(
    bytes: &[u8],
) -> Result<impl Iterator<Item = Result<TraceEvent, String>> + '_, String> {
    if bytes.len() < MAGIC.len() || bytes[..MAGIC.len()] != MAGIC {
        return Err("not an smtx trace (bad magic)".to_string());
    }
    let mut pos = MAGIC.len();
    Ok(std::iter::from_fn(move || (pos < bytes.len()).then(|| decode_event(bytes, &mut pos))))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_events() -> Vec<TraceEvent> {
        vec![
            TraceEvent::RunStart { kernel: 3, seed: 42, insts: 1000, digest: u64::MAX },
            TraceEvent::Fetch { cycle: 0, tid: 0, seq: 0, pc: 0x1_0000, pal: false },
            TraceEvent::Rename { cycle: 2, tid: 0, seq: 0 },
            TraceEvent::Issue { cycle: 4, tid: 0, seq: 0 },
            TraceEvent::Writeback { cycle: 5, tid: 0, seq: 0 },
            TraceEvent::Raise {
                cycle: 6,
                tid: 0,
                seq: 1,
                kind: RaiseKind::Primary,
                aux: 1 << 52,
            },
            TraceEvent::SpliceStart { cycle: 6, handler_tid: 1, master: 0, exc_seq: 1 },
            TraceEvent::Raise { cycle: 7, tid: 0, seq: 0, kind: RaiseKind::Relink, aux: 1 },
            TraceEvent::Raise { cycle: 8, tid: 0, seq: 2, kind: RaiseKind::Secondary, aux: 9 },
            TraceEvent::SpliceEnd {
                cycle: 30,
                handler_tid: 1,
                master: 0,
                exc_seq: 0,
                committed: true,
            },
            TraceEvent::Squash {
                cycle: 31,
                tid: 0,
                from_seq: 3,
                cause: SquashCause::Mispredict,
                resume_pc: u64::MAX,
            },
            TraceEvent::Squash {
                cycle: 32,
                tid: 0,
                from_seq: 0,
                cause: SquashCause::Epoch,
                resume_pc: 0x1_0040,
            },
            TraceEvent::Revert {
                cycle: 40,
                tid: 0,
                seq: 5,
                pc: 0xdead_beef,
                why: RevertWhy::NoIdleContext,
            },
            TraceEvent::HandlerReturn { cycle: 50, tid: 0, pc: 4 },
            TraceEvent::Retire { cycle: 60, tid: 0, seq: 0, pc: 0x1_0000, pal: true },
            TraceEvent::End { cycle: 61 },
        ]
    }

    #[test]
    fn round_trips_exactly() {
        let events = sample_events();
        let bytes = encode(&events);
        assert_eq!(decode(&bytes).expect("decodes"), events);
    }

    #[test]
    fn varint_round_trips_boundary_values() {
        for v in [0u64, 1, 127, 128, 255, 1 << 14, (1 << 21) - 1, 1 << 35, u64::MAX - 1, u64::MAX]
        {
            let mut buf = Vec::new();
            put_varint(&mut buf, v);
            let mut pos = 0;
            assert_eq!(get_varint(&buf, &mut pos).expect("decodes"), v, "value {v}");
            assert_eq!(pos, buf.len(), "consumed all bytes for {v}");
        }
    }

    #[test]
    fn rejects_garbage() {
        assert!(decode(b"not a trace file").is_err());
        // Valid magic, unknown tag.
        let mut bytes = MAGIC.to_vec();
        bytes.push(0xff);
        assert!(decode(&bytes).is_err());
        // Truncated field.
        let mut bytes = encode(&sample_events());
        bytes.truncate(bytes.len() - 1);
        assert!(decode(&bytes).is_err());
    }

    #[test]
    fn body_chunks_concatenate() {
        let events = sample_events();
        let (a, b) = events.split_at(4);
        let mut bytes = MAGIC.to_vec();
        bytes.extend_from_slice(&encode_body(a));
        bytes.extend_from_slice(&encode_body(b));
        assert_eq!(decode(&bytes).expect("decodes"), events);
    }
}
