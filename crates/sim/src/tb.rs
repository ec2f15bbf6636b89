//! Testbenches: stimulus generators for the two evaluated designs.

use rand::{Rng, SeedableRng};

/// Events of one environment instant.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct InstantEvents {
    /// Pure signal names present this instant.
    pub pure: Vec<String>,
    /// Valued signals: (name, value) — presence implied.
    pub valued: Vec<(String, i64)>,
}

/// The paper's evaluation workload: a stream of packets fed byte by
/// byte into the protocol stack ("a testbench with 500 packets").
#[derive(Debug, Clone)]
pub struct PacketTb {
    /// Number of packets.
    pub packets: usize,
    /// Every n-th packet carries a corrupted CRC (0 = never).
    pub corrupt_every: usize,
    /// A `reset` pulse before every n-th packet (0 = never).
    pub reset_every: usize,
    /// RNG seed for payload bytes.
    pub seed: u64,
}

impl Default for PacketTb {
    fn default() -> Self {
        PacketTb {
            packets: 500,
            corrupt_every: 5,
            reset_every: 0,
            seed: 1999, // the paper's year
        }
    }
}

/// Packet geometry (mirrors the `#define`s of Figure 1).
pub const HDRSIZE: usize = 6;
/// Payload bytes.
pub const DATASIZE: usize = 56;
/// CRC bytes.
pub const CRCSIZE: usize = 2;
/// Total packet size.
pub const PKTSIZE: usize = HDRSIZE + DATASIZE + CRCSIZE;

/// Build one 64-byte packet. `good_addr` controls whether the header
/// matches `prochdr`'s expected pattern (byte j == j+1); `good_crc`
/// controls CRC validity.
pub fn make_packet(rng: &mut impl Rng, good_addr: bool, good_crc: bool) -> [u8; PKTSIZE] {
    let mut p = [0u8; PKTSIZE];
    for (j, b) in p.iter_mut().enumerate().take(HDRSIZE) {
        *b = if good_addr { (j + 1) as u8 } else { 0xEE };
    }
    for b in p.iter_mut().take(HDRSIZE + DATASIZE).skip(HDRSIZE) {
        *b = rng.gen();
    }
    // CRC per checkcrc: acc = (acc ^ byte) << 1 over header+data,
    // masked to 16 bits and compared little-endian.
    let crc = crc16(&p[..HDRSIZE + DATASIZE]);
    let crc = if good_crc { crc } else { crc ^ 0x0101 };
    p[PKTSIZE - 2] = (crc & 0xFF) as u8;
    p[PKTSIZE - 1] = (crc >> 8) as u8;
    p
}

/// The CRC accumulation of Figure 2, masked to 16 bits.
pub fn crc16(bytes: &[u8]) -> u16 {
    let mut acc: u32 = 0;
    for b in bytes {
        acc = ((acc ^ *b as u32) << 1) & 0xFFFF;
    }
    acc as u16
}

impl PacketTb {
    /// Generate the full instant-by-instant event stream: one byte per
    /// instant on `in_byte`, optional `reset` pulses between packets.
    pub fn events(&self) -> Vec<InstantEvents> {
        let mut rng = rand::rngs::StdRng::seed_from_u64(self.seed);
        let mut out = Vec::with_capacity(self.packets * PKTSIZE + 4);
        // One idle instant so all awaits are armed.
        out.push(InstantEvents::default());
        for k in 0..self.packets {
            if self.reset_every != 0 && k > 0 && k % self.reset_every == 0 {
                out.push(InstantEvents {
                    pure: vec!["reset".into()],
                    valued: vec![],
                });
            }
            let corrupt = self.corrupt_every != 0 && (k + 1) % self.corrupt_every == 0;
            let pkt = make_packet(&mut rng, true, !corrupt);
            for b in pkt {
                out.push(InstantEvents {
                    pure: vec![],
                    valued: vec![("in_byte".into(), b as i64)],
                });
            }
            // One gap instant between packets (lets prochdr's par join).
            out.push(InstantEvents::default());
        }
        // Drain instants at the end.
        for _ in 0..(HDRSIZE + 4) {
            out.push(InstantEvents::default());
        }
        out
    }
}

/// Scenario for the voice pager: record `frames` frames, play them
/// back, erase; repeated `rounds` times.
#[derive(Debug, Clone)]
pub struct PagerTb {
    /// Record/playback rounds.
    pub rounds: usize,
    /// Frames recorded per round (4 samples each).
    pub frames: usize,
    /// RNG seed for sample values.
    pub seed: u64,
}

impl Default for PagerTb {
    fn default() -> Self {
        PagerTb {
            rounds: 25,
            frames: 4,
            seed: 7,
        }
    }
}

impl PagerTb {
    /// Generate the event stream.
    pub fn events(&self) -> Vec<InstantEvents> {
        let mut rng = rand::rngs::StdRng::seed_from_u64(self.seed);
        let mut out = Vec::new();
        out.push(InstantEvents::default());
        for _ in 0..self.rounds {
            // Start recording.
            out.push(InstantEvents {
                pure: vec!["rec_on".into()],
                valued: vec![],
            });
            for _ in 0..self.frames * 4 {
                out.push(InstantEvents {
                    pure: vec![],
                    valued: vec![("sample".into(), rng.gen_range(0..256))],
                });
            }
            out.push(InstantEvents {
                pure: vec!["rec_off".into()],
                valued: vec![],
            });
            // Play back.
            out.push(InstantEvents {
                pure: vec!["play_btn".into()],
                valued: vec![],
            });
            for _ in 0..self.frames * 5 + 4 {
                out.push(InstantEvents {
                    pure: vec!["tick".into()],
                    valued: vec![],
                });
                out.push(InstantEvents::default());
            }
            out.push(InstantEvents {
                pure: vec!["stop_btn".into()],
                valued: vec![],
            });
            out.push(InstantEvents {
                pure: vec!["erase".into()],
                valued: vec![],
            });
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc16_matches_manual_accumulation() {
        let bytes = [1u8, 2, 3];
        let mut acc: u32 = 0;
        for b in bytes {
            acc = ((acc ^ b as u32) << 1) & 0xFFFF;
        }
        assert_eq!(crc16(&bytes), acc as u16);
    }

    #[test]
    fn packets_have_valid_crc_when_asked() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let p = make_packet(&mut rng, true, true);
        let crc = crc16(&p[..HDRSIZE + DATASIZE]);
        assert_eq!(p[62] as u16 | ((p[63] as u16) << 8), crc);
        let bad = make_packet(&mut rng, true, false);
        let crc2 = crc16(&bad[..HDRSIZE + DATASIZE]);
        assert_ne!(bad[62] as u16 | ((bad[63] as u16) << 8), crc2);
    }

    #[test]
    fn packet_tb_produces_expected_volume() {
        let tb = PacketTb {
            packets: 3,
            corrupt_every: 0,
            reset_every: 0,
            seed: 1,
        };
        let ev = tb.events();
        // 1 idle + 3 × (64 bytes + 1 gap) + drain.
        assert_eq!(ev.len(), 1 + 3 * 65 + HDRSIZE + 4);
        let bytes = ev.iter().filter(|e| !e.valued.is_empty()).count();
        assert_eq!(bytes, 3 * PKTSIZE);
    }

    #[test]
    fn default_is_500_packets() {
        assert_eq!(PacketTb::default().packets, 500);
    }

    #[test]
    fn pager_tb_has_buttons_and_samples() {
        let tb = PagerTb {
            rounds: 1,
            frames: 2,
            seed: 1,
        };
        let ev = tb.events();
        assert!(ev.iter().any(|e| e.pure.contains(&"rec_on".to_string())));
        assert!(ev.iter().any(|e| e.pure.contains(&"play_btn".to_string())));
        assert_eq!(
            ev.iter().filter(|e| !e.valued.is_empty()).count(),
            8 // 2 frames × 4 samples
        );
    }
}
