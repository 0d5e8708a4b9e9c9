//! Control-message wire format (lock and barrier traffic).
//!
//! Control messages are serialized into mailbox slots and carried by
//! ordered+notifying remote writes. Write notices are transmitted as merged
//! page ranges, which keeps even pathological dirty sets (every page of a
//! large array) down to a handful of ranges.

/// A run of consecutive dirty pages `[start, start + count)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PageRange {
    /// First page number.
    pub start: u64,
    /// Number of pages.
    pub count: u32,
}

/// Merge a sorted, de-duplicated page list into maximal ranges.
pub fn merge_pages(pages: impl IntoIterator<Item = u64>) -> Vec<PageRange> {
    let mut out: Vec<PageRange> = Vec::new();
    for p in pages {
        match out.last_mut() {
            Some(r) if p == r.start + r.count as u64 => r.count += 1,
            Some(r) if p < r.start + r.count as u64 => {
                debug_assert!(false, "merge_pages input must be sorted unique");
            }
            _ => out.push(PageRange { start: p, count: 1 }),
        }
    }
    out
}

/// Expand ranges back to individual pages.
pub fn expand_ranges(ranges: &[PageRange]) -> impl Iterator<Item = u64> + '_ {
    ranges
        .iter()
        .flat_map(|r| r.start..r.start + r.count as u64)
}

/// Union several range lists (as a merged range list).
pub fn union_ranges(lists: &[&[PageRange]]) -> Vec<PageRange> {
    let mut pages: Vec<u64> = lists.iter().flat_map(|l| expand_ranges(l)).collect();
    pages.sort_unstable();
    pages.dedup();
    merge_pages(pages)
}

/// DSM control messages.
#[derive(Debug, Clone, PartialEq)]
pub enum CtlMsg {
    /// Ask the lock's manager for the lock.
    LockRequest {
        /// Lock id.
        lock: u32,
    },
    /// Manager grants the lock; `notices` are pages the new holder must
    /// invalidate (written under this lock since the holder last saw it).
    LockGrant {
        /// Lock id.
        lock: u32,
        /// Pages to invalidate.
        notices: Vec<PageRange>,
    },
    /// Holder releases the lock; diffs were flushed to homes beforehand.
    LockRelease {
        /// Lock id.
        lock: u32,
        /// Pages the holder dirtied while holding the lock.
        notices: Vec<PageRange>,
    },
    /// Node arrives at a barrier with its accumulated write notices.
    BarrierArrive {
        /// Barrier id.
        barrier: u32,
        /// Barrier epoch (generation).
        epoch: u64,
        /// Pages this node dirtied since the previous barrier.
        notices: Vec<PageRange>,
    },
    /// Manager releases the barrier; `notices` are the other nodes' dirty
    /// pages (the receiver's own are excluded).
    BarrierRelease {
        /// Barrier id.
        barrier: u32,
        /// Barrier epoch (generation).
        epoch: u64,
        /// Pages to invalidate.
        notices: Vec<PageRange>,
    },
}

fn put_ranges(buf: &mut Vec<u8>, ranges: &[PageRange]) {
    buf.extend_from_slice(&(ranges.len() as u32).to_le_bytes());
    for r in ranges {
        buf.extend_from_slice(&r.start.to_le_bytes());
        buf.extend_from_slice(&r.count.to_le_bytes());
    }
}

fn get_u32(b: &[u8], o: &mut usize) -> u32 {
    let v = u32::from_le_bytes(b[*o..*o + 4].try_into().unwrap());
    *o += 4;
    v
}

fn get_u64(b: &[u8], o: &mut usize) -> u64 {
    let v = u64::from_le_bytes(b[*o..*o + 8].try_into().unwrap());
    *o += 8;
    v
}

fn get_ranges(b: &[u8], o: &mut usize) -> Vec<PageRange> {
    let n = get_u32(b, o) as usize;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        let start = get_u64(b, o);
        let count = get_u32(b, o);
        out.push(PageRange { start, count });
    }
    out
}

impl CtlMsg {
    /// Serialize for a mailbox slot.
    pub fn encode(&self) -> Vec<u8> {
        let mut b = Vec::with_capacity(64);
        match self {
            CtlMsg::LockRequest { lock } => {
                b.push(1);
                b.extend_from_slice(&lock.to_le_bytes());
            }
            CtlMsg::LockGrant { lock, notices } => {
                b.push(2);
                b.extend_from_slice(&lock.to_le_bytes());
                put_ranges(&mut b, notices);
            }
            CtlMsg::LockRelease { lock, notices } => {
                b.push(3);
                b.extend_from_slice(&lock.to_le_bytes());
                put_ranges(&mut b, notices);
            }
            CtlMsg::BarrierArrive {
                barrier,
                epoch,
                notices,
            } => {
                b.push(4);
                b.extend_from_slice(&barrier.to_le_bytes());
                b.extend_from_slice(&epoch.to_le_bytes());
                put_ranges(&mut b, notices);
            }
            CtlMsg::BarrierRelease {
                barrier,
                epoch,
                notices,
            } => {
                b.push(5);
                b.extend_from_slice(&barrier.to_le_bytes());
                b.extend_from_slice(&epoch.to_le_bytes());
                put_ranges(&mut b, notices);
            }
        }
        assert!(
            b.len() as u64 <= crate::layout::SLOT_SIZE,
            "control message exceeds mailbox slot: {} bytes",
            b.len()
        );
        b
    }

    /// Parse from mailbox bytes.
    pub fn decode(b: &[u8]) -> Option<CtlMsg> {
        let mut o = 1usize;
        Some(match *b.first()? {
            1 => CtlMsg::LockRequest {
                lock: get_u32(b, &mut o),
            },
            2 => {
                let lock = get_u32(b, &mut o);
                CtlMsg::LockGrant {
                    lock,
                    notices: get_ranges(b, &mut o),
                }
            }
            3 => {
                let lock = get_u32(b, &mut o);
                CtlMsg::LockRelease {
                    lock,
                    notices: get_ranges(b, &mut o),
                }
            }
            4 => {
                let barrier = get_u32(b, &mut o);
                let epoch = get_u64(b, &mut o);
                CtlMsg::BarrierArrive {
                    barrier,
                    epoch,
                    notices: get_ranges(b, &mut o),
                }
            }
            5 => {
                let barrier = get_u32(b, &mut o);
                let epoch = get_u64(b, &mut o);
                CtlMsg::BarrierRelease {
                    barrier,
                    epoch,
                    notices: get_ranges(b, &mut o),
                }
            }
            _ => return None,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_and_expand() {
        let ranges = merge_pages([1u64, 2, 3, 7, 9, 10]);
        assert_eq!(
            ranges,
            vec![
                PageRange { start: 1, count: 3 },
                PageRange { start: 7, count: 1 },
                PageRange { start: 9, count: 2 },
            ]
        );
        let back: Vec<u64> = expand_ranges(&ranges).collect();
        assert_eq!(back, vec![1, 2, 3, 7, 9, 10]);
    }

    #[test]
    fn union_overlapping() {
        let a = vec![PageRange { start: 0, count: 4 }];
        let b = vec![
            PageRange { start: 2, count: 4 },
            PageRange { start: 9, count: 1 },
        ];
        let u = union_ranges(&[&a, &b]);
        assert_eq!(
            u,
            vec![
                PageRange { start: 0, count: 6 },
                PageRange { start: 9, count: 1 }
            ]
        );
    }

    #[test]
    fn codec_round_trips() {
        let msgs = vec![
            CtlMsg::LockRequest { lock: 7 },
            CtlMsg::LockGrant {
                lock: 7,
                notices: vec![PageRange {
                    start: 100,
                    count: 3,
                }],
            },
            CtlMsg::LockRelease {
                lock: 7,
                notices: vec![],
            },
            CtlMsg::BarrierArrive {
                barrier: 0,
                epoch: 12,
                notices: merge_pages(0..500u64),
            },
            CtlMsg::BarrierRelease {
                barrier: 0,
                epoch: 12,
                notices: vec![PageRange { start: 5, count: 1 }],
            },
        ];
        for m in msgs {
            assert_eq!(CtlMsg::decode(&m.encode()), Some(m));
        }
    }

    #[test]
    fn garbage_decodes_to_none() {
        assert_eq!(CtlMsg::decode(&[]), None);
        assert_eq!(CtlMsg::decode(&[99, 0, 0]), None);
    }

    #[test]
    fn dense_dirty_set_stays_compact() {
        // 10 000 consecutive dirty pages: one range, tiny message.
        let m = CtlMsg::BarrierArrive {
            barrier: 0,
            epoch: 0,
            notices: merge_pages(0..10_000u64),
        };
        assert!(m.encode().len() < 64);
    }
}
