//! Criterion micro-benchmarks of the DB-PIM kernels: CSD recoding, the FTA
//! algorithm, dyadic-block metadata extraction, the bit-accurate macro and
//! the input pre-processing unit.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use dbpim_arch::{ArchConfig, InputPreprocessor, PimMacro};
use dbpim_csd::{CsdWord, OperandWidth};
use dbpim_fta::metadata::FilterMetadata;
use dbpim_fta::{FilterApprox, QueryTables};

fn random_weights(seed: u64, len: usize) -> Vec<i8> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    (0..len).map(|_| rng.gen()).collect()
}

fn bench_csd_recoding(c: &mut Criterion) {
    let values = random_weights(1, 4096);
    c.bench_function("csd/recode_4096_int8", |b| {
        b.iter(|| {
            let mut digits = 0u32;
            for &v in &values {
                digits += CsdWord::encode(i32::from(black_box(v)), OperandWidth::Int8)
                    .unwrap()
                    .nonzero_digits();
            }
            black_box(digits)
        })
    });
}

fn bench_fta_algorithm(c: &mut Criterion) {
    let tables = QueryTables::for_width(OperandWidth::Int8);
    let filter = random_weights(2, 1152); // a 128x3x3 filter
    c.bench_function("fta/approximate_filter_1152", |b| {
        b.iter(|| FilterApprox::approximate(black_box(&filter), &tables).expect("approximates"))
    });

    let approx = FilterApprox::approximate(&filter, &tables).expect("approximates");
    c.bench_function("fta/extract_metadata_1152", |b| {
        b.iter(|| FilterMetadata::from_filter(0, black_box(&approx)))
    });
}

fn bench_macro_execution(c: &mut Criterion) {
    let tables = QueryTables::for_width(OperandWidth::Int8);
    let mut rng = ChaCha8Rng::seed_from_u64(3);
    let len = 256usize;
    let inputs: Vec<i8> = (0..len).map(|_| rng.gen_range(0i8..=63)).collect();
    let metadata: Vec<FilterMetadata> = (0..8)
        .map(|i| {
            let raw = random_weights(10 + i, len);
            let approx =
                FilterApprox::approximate_with_threshold(&raw, 2, &tables).expect("approximates");
            FilterMetadata::from_filter(i as usize, &approx)
        })
        .collect();
    let dense_filters: Vec<Vec<i32>> =
        (0..2).map(|i| random_weights(20 + i, len).into_iter().map(i32::from).collect()).collect();

    // Load and compute phases are timed separately: a real inference loads a
    // tile once and executes it against every im2col patch, so folding the
    // (allocation-heavy) load into the timed region would hide the hot path.
    let mut loader = PimMacro::new(ArchConfig::paper()).expect("macro builds");
    c.bench_function("macro/sparse_tile_load_8x256", |b| {
        b.iter(|| loader.load_sparse_tile(black_box(&metadata)).expect("loads"))
    });

    let mut pim = PimMacro::new(ArchConfig::paper()).expect("macro builds");
    pim.load_sparse_tile(&metadata).expect("loads");
    let ipu = InputPreprocessor::new();
    c.bench_function("macro/sparse_tile_compute_8x256_hybrid", |b| {
        b.iter(|| pim.execute_loaded(black_box(&inputs), &ipu).expect("executes"))
    });

    c.bench_function("macro/dense_tile_load_2x256", |b| {
        b.iter(|| {
            loader
                .load_dense_tile_for_width(black_box(&dense_filters), OperandWidth::Int8)
                .expect("loads")
        })
    });

    let mut pim = PimMacro::new(ArchConfig::paper()).expect("macro builds");
    pim.load_dense_tile_for_width(&dense_filters, OperandWidth::Int8).expect("loads");
    let dense_ipu = InputPreprocessor::without_sparsity();
    c.bench_function("macro/dense_tile_compute_2x256", |b| {
        b.iter(|| pim.execute_loaded(black_box(&inputs), &dense_ipu).expect("executes"))
    });
}

fn bench_ipu(c: &mut Criterion) {
    let mut rng = ChaCha8Rng::seed_from_u64(4);
    let features: Vec<i8> = (0..4096).map(|_| rng.gen_range(0i8..=15)).collect();
    let ipu = InputPreprocessor::new();
    c.bench_function("ipu/skip_ratio_4096_features", |b| {
        b.iter(|| ipu.skip_ratio_over(black_box(&features), 16))
    });
}

criterion_group! {
    name = kernels;
    config = Criterion::default().sample_size(20);
    targets = bench_csd_recoding, bench_fta_algorithm, bench_macro_execution, bench_ipu
}
criterion_main!(kernels);
