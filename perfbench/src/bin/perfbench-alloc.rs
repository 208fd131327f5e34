//! Allocation probes, run by `perfbench --trace 1` as a child process.
//!
//! This binary installs `pigpaxos_bench::alloc::CountingAllocator`, so
//! the main benchmark binary, whose timings must not pay for counting,
//! does not have to. Prints `name value` lines.

use perfbench::probes::{sample_p2a, sample_p2b};
use pigpaxos_bench::alloc::{self, CountingAllocator};
use pigpaxos_bench::hotpath;
use simnet::Bytes;
use std::hint::black_box;

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

fn main() {
    const ITERS: u64 = 10_000;
    let frames: Vec<Bytes> = [sample_p2a(), sample_p2b()]
        .iter()
        .map(|m| Bytes::from(hotpath::encode_message(m)))
        .collect();
    let ((), decode) = alloc::measure(|| {
        for _ in 0..ITERS {
            for f in &frames {
                black_box(hotpath::decode_message(black_box(f)));
            }
        }
    });
    let per_msg = decode.allocs as f64 / (ITERS * frames.len() as u64) as f64;
    println!("wire.decode_allocs_per_msg {per_msg}");

    let mut pipe = hotpath::LeaderPipeline::new(5, 16);
    pipe.run(8);
    let (decided, leader_allocs) = pipe.run(512);
    println!(
        "paxos.decide_allocs_per_cmd {}",
        leader_allocs as f64 / decided as f64
    );
}
