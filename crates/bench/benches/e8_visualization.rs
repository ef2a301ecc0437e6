//! E8 — presentation layer (demo steps 9–10): linear-model-tree and
//! partition-visualization construction plus rendering.

use charles_bench::engine_for;
use charles_core::{CharlesConfig, LinearModelTree, PartitionViz};
use charles_server::RankedSummary;
use charles_synth::county;
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

fn bench(c: &mut Criterion) {
    let scenario = county(500, 42);
    let result = engine_for(&scenario, CharlesConfig::default())
        .run()
        .expect("run");
    let top = result.top().expect("summaries").clone();

    let mut group = c.benchmark_group("e8_visualization");
    group.bench_function("build_tree", |b| {
        b.iter(|| black_box(LinearModelTree::from_summary(&top).leaf_count()))
    });
    group.bench_function("render_tree", |b| {
        let tree = LinearModelTree::from_summary(&top);
        b.iter(|| black_box(tree.to_string().len()))
    });
    group.bench_function("build_viz", |b| {
        b.iter(|| black_box(PartitionViz::from_summary(&top).rects.len()))
    });
    group.bench_function("render_viz", |b| {
        let viz = PartitionViz::from_summary(&top);
        b.iter(|| black_box(viz.to_string().len()))
    });
    group.bench_function("render_summary_json", |b| {
        // The wire encoding the server sends for a ranked summary.
        b.iter(|| {
            black_box(
                RankedSummary::from_summary(1, &top)
                    .to_json()
                    .encode()
                    .len(),
            )
        })
    });
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
