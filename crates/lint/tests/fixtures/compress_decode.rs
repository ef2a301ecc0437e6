// A block decode path over bit-packed words, seeded with the two
// mistakes the block-grid and float-fold rules exist to catch.

/// Decodes one block the WRONG ways: bare grid literal, ad-hoc float fold.
pub fn decode_block_bad(packed: &[u64], out: &mut Vec<f64>) -> f64 {
    let blocks = packed.len().div_ceil(128); // block-grid-literals
    let mut checksum = 0.0f64;
    for &word in packed.iter().take(blocks) {
        let v = f64::from_bits(word);
        checksum += v; // float-fold-order
        out.push(v);
    }
    checksum
}

/// The same decode done right: the named grid constant, and the reduction
/// left to the fixed-order kernels.
pub fn decode_block_good(packed: &[u64], out: &mut Vec<f64>) {
    let blocks = packed.len().div_ceil(GRAM_BLOCK_ROWS);
    for &word in packed.iter().take(blocks) {
        out.push(f64::from_bits(word));
    }
}

/// Integer bit-unpacking may accumulate freely: no float signal, no
/// finding.
pub fn unpack_widths(packed: &[u64]) -> u64 {
    let mut total = 0u64;
    for &word in packed {
        total += word.count_ones() as u64;
    }
    total
}
