//! Encode/decode throughput of the delta packetizer on LOB flushes: bursts of
//! leader outputs and the predictions they ran on, through the protocol's
//! one codec (`Message::Burst` rows built straight from the entries).

use predpkt_bench::micro::BenchGroup;
use predpkt_core::Message;
use predpkt_predict::LobEntry;

/// A flush of `n` entries: a head entry that ran on actual values, then
/// `n - 1` predicted ones. The first `churn` of the leader's `local` words
/// change every cycle; predictions hold still.
fn burst(n: u32, local: usize, remote: usize, churn: usize) -> Message {
    let entries = (0..n)
        .map(|i| {
            let mut words = vec![7u32; local];
            for w in words.iter_mut().take(churn) {
                *w = i;
            }
            LobEntry {
                local: words,
                predicted: (i > 0).then(|| vec![9; remote]),
            }
        })
        .collect();
    Message::Burst {
        entries,
        leader_next: vec![0; local],
    }
}

fn main() {
    let mut group = BenchGroup::new("packetizer");
    // `figure2_soc`'s accelerator leads with 8 words and predicts 7.
    for (name, n, local, remote, churn) in [
        ("64x8_stable", 64, 8, 7, 1),
        ("64x8_churny", 64, 8, 7, 6),
        ("256x16_stable", 256, 16, 16, 2),
    ] {
        let msg = burst(n, local, remote, churn);
        group.throughput_elements(u64::from(n) * (1 + local + remote) as u64);
        group.bench(&format!("encode_{name}"), || msg.encode(local, remote));
        let pkt = msg.encode(local, remote);
        group.bench(&format!("decode_{name}"), || {
            Message::decode(&pkt, remote, local).expect("valid burst")
        });
    }
}
