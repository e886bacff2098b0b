//! Tuple encoding (paper §4.2) and column factorization (§4.6).
//!
//! Values are dictionary codes (see `uae-data`); each column's code is
//! binary-encoded into `ceil(log2 |A_i|)` bits plus one **presence bit**
//! that distinguishes a real value from a *wildcard* (unqueried column,
//! §4.6 "wildcard skipping"). The presence-bit scheme keeps the encoding a
//! loss-free bijection while letting both training (wildcard dropout) and
//! inference (skipping unqueried columns) feed "absent" without colliding
//! with the encoding of code 0.
//!
//! Columns whose domain exceeds a threshold are **factorized** into a
//! high-bits and a low-bits subcolumn (§4.6, as in NeuroCard), shrinking the
//! output layer from `|A_i|` logits to `2^hi + 2^lo`.

use uae_data::Table;
use uae_query::Region;
use uae_tensor::Tensor;

/// Number of bits needed to binary-encode codes `0..domain`.
pub fn bits_for(domain: usize) -> usize {
    debug_assert!(domain >= 1);
    usize::BITS as usize - (domain.max(2) - 1).leading_zeros() as usize
}

/// Encoder for one virtual column.
#[derive(Debug, Clone)]
pub struct ColumnCodec {
    domain: usize,
    bits: usize,
}

impl ColumnCodec {
    /// Codec over `0..domain`.
    pub fn new(domain: usize) -> Self {
        ColumnCodec { domain, bits: bits_for(domain) }
    }

    /// Domain size.
    pub fn domain(&self) -> usize {
        self.domain
    }

    /// Width of the encoded input block: presence bit + binary bits.
    pub fn width(&self) -> usize {
        self.bits + 1
    }

    /// Encode a code into `out` (length [`ColumnCodec::width`]).
    pub fn encode_into(&self, code: u32, out: &mut [f32]) {
        debug_assert!((code as usize) < self.domain, "code out of domain");
        debug_assert_eq!(out.len(), self.width());
        out[0] = 1.0; // presence
        for b in 0..self.bits {
            out[b + 1] = ((code >> b) & 1) as f32;
        }
    }

    /// Encode a wildcard (absent value): all zeros.
    pub fn wildcard_into(&self, out: &mut [f32]) {
        debug_assert_eq!(out.len(), self.width());
        out.fill(0.0);
    }

    /// The constant `domain x width` matrix `E` with `E[v] = encode(v)`,
    /// used to embed a *soft* one-hot sample: `soft_input = y @ E`
    /// (differentiable progressive sampling, §4.3).
    pub fn soft_matrix(&self) -> Tensor {
        let mut e = Tensor::zeros(self.domain, self.width());
        for v in 0..self.domain {
            let row = e.row_mut(v);
            row[0] = 1.0;
            for b in 0..self.bits {
                row[b + 1] = ((v >> b) & 1) as f32;
            }
        }
        e
    }
}

/// How tuple values are presented to the network (§4.6).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EncodingMode {
    /// `ceil(log2 |A|)` binary bits plus a presence bit (paper default).
    #[default]
    Binary,
    /// A learnable `|A| x dim` embedding per column — the paper's first
    /// option for columns with very large NDVs.
    Embedding {
        /// Embedding width per column.
        dim: usize,
    },
}

/// How one original column maps onto virtual (model) columns.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ColEntry {
    /// Modeled directly as virtual column `vcol`.
    Single { vcol: usize },
    /// Factorized: `code = hi_code << lo_bits | lo_code`, with the high
    /// part at virtual column `hi` and the low part at `lo`.
    Split { hi: usize, lo: usize, lo_bits: usize },
}

/// The mapping from a table's columns to the autoregressive model's virtual
/// columns, plus per-virtual-column codecs.
#[derive(Debug, Clone)]
pub struct VirtualSchema {
    entries: Vec<ColEntry>,
    codecs: Vec<ColumnCodec>,
    mode: EncodingMode,
    /// Input block offset of each virtual column.
    input_offsets: Vec<usize>,
    /// Logit slice offset of each virtual column.
    logit_offsets: Vec<usize>,
    input_width: usize,
    logit_width: usize,
}

impl VirtualSchema {
    /// Build a schema for `table`, factorizing columns whose domain exceeds
    /// `factor_threshold` (use `usize::MAX` to disable factorization).
    pub fn build(table: &Table, factor_threshold: usize) -> Self {
        Self::build_with_mode(table, factor_threshold, EncodingMode::Binary)
    }

    /// Build a schema with an explicit input [`EncodingMode`].
    pub fn build_with_mode(table: &Table, factor_threshold: usize, mode: EncodingMode) -> Self {
        let mut entries = Vec::with_capacity(table.num_cols());
        let mut domains: Vec<usize> = Vec::new();
        for col in table.columns() {
            let d = col.domain_size().max(1);
            if d > factor_threshold {
                let total_bits = bits_for(d);
                let lo_bits = total_bits / 2;
                let hi_domain = ((d - 1) >> lo_bits) + 1;
                let hi = domains.len();
                domains.push(hi_domain);
                let lo = domains.len();
                domains.push(1 << lo_bits);
                entries.push(ColEntry::Split { hi, lo, lo_bits });
            } else {
                let v = domains.len();
                domains.push(d);
                entries.push(ColEntry::Single { vcol: v });
            }
        }
        Self::from_domains(entries, domains, mode)
    }

    fn from_domains(entries: Vec<ColEntry>, domains: Vec<usize>, mode: EncodingMode) -> Self {
        let codecs: Vec<ColumnCodec> = domains.iter().map(|&d| ColumnCodec::new(d)).collect();
        let mut input_offsets = Vec::with_capacity(codecs.len());
        let mut logit_offsets = Vec::with_capacity(codecs.len());
        let (mut iw, mut lw) = (0usize, 0usize);
        for c in &codecs {
            input_offsets.push(iw);
            logit_offsets.push(lw);
            iw += match mode {
                EncodingMode::Binary => c.width(),
                EncodingMode::Embedding { dim } => dim,
            };
            lw += c.domain();
        }
        VirtualSchema {
            entries,
            codecs,
            mode,
            input_offsets,
            logit_offsets,
            input_width: iw,
            logit_width: lw,
        }
    }

    /// The input encoding mode.
    pub fn mode(&self) -> EncodingMode {
        self.mode
    }

    /// Encoded input width of one virtual column.
    pub fn vcol_input_width(&self, v: usize) -> usize {
        match self.mode {
            EncodingMode::Binary => self.codecs[v].width(),
            EncodingMode::Embedding { dim } => dim,
        }
    }

    /// Per-original-column mapping.
    pub fn entries(&self) -> &[ColEntry] {
        &self.entries
    }

    /// Number of virtual columns.
    pub fn num_virtual(&self) -> usize {
        self.codecs.len()
    }

    /// Codec of virtual column `v`.
    pub fn codec(&self, v: usize) -> &ColumnCodec {
        &self.codecs[v]
    }

    /// Total encoded input width (model input dimension).
    pub fn input_width(&self) -> usize {
        self.input_width
    }

    /// Total logit width (model output dimension).
    pub fn logit_width(&self) -> usize {
        self.logit_width
    }

    /// Input block range of virtual column `v`.
    pub fn input_slice(&self, v: usize) -> (usize, usize) {
        let s = self.input_offsets[v];
        (s, s + self.vcol_input_width(v))
    }

    /// Logit slice range of virtual column `v`.
    pub fn logit_slice(&self, v: usize) -> (usize, usize) {
        let s = self.logit_offsets[v];
        (s, s + self.codecs[v].domain())
    }

    /// Degree (1-based autoregressive position) of each *input bit* and the
    /// degree of each *logit*, used to build MADE masks.
    pub fn degrees(&self) -> (Vec<usize>, Vec<usize>) {
        let mut input_deg = Vec::with_capacity(self.input_width);
        let mut logit_deg = Vec::with_capacity(self.logit_width);
        for (v, c) in self.codecs.iter().enumerate() {
            input_deg.extend(std::iter::repeat_n(v + 1, self.vcol_input_width(v)));
            logit_deg.extend(std::iter::repeat_n(v + 1, c.domain()));
        }
        (input_deg, logit_deg)
    }

    /// Map an original row of table codes to virtual codes.
    pub fn to_virtual_codes(&self, table_codes: &[u32]) -> Vec<u32> {
        let mut out = vec![0u32; self.num_virtual()];
        for (orig, entry) in self.entries.iter().enumerate() {
            let code = table_codes[orig];
            match *entry {
                ColEntry::Single { vcol } => out[vcol] = code,
                ColEntry::Split { hi, lo, lo_bits } => {
                    out[hi] = code >> lo_bits;
                    out[lo] = code & ((1u32 << lo_bits) - 1);
                }
            }
        }
        out
    }

    /// Precompute the virtual-code matrix of a whole table (column-major:
    /// `result[v][row]`).
    pub fn virtual_codes(&self, table: &Table) -> Vec<Vec<u32>> {
        let mut out: Vec<Vec<u32>> =
            (0..self.num_virtual()).map(|_| vec![0u32; table.num_rows()]).collect();
        for (orig, entry) in self.entries.iter().enumerate() {
            let codes = table.column(orig).codes();
            match *entry {
                ColEntry::Single { vcol } => out[vcol].copy_from_slice(codes),
                ColEntry::Split { hi, lo, lo_bits } => {
                    let mask = (1u32 << lo_bits) - 1;
                    for (r, &c) in codes.iter().enumerate() {
                        out[hi][r] = c >> lo_bits;
                        out[lo][r] = c & mask;
                    }
                }
            }
        }
        out
    }

    /// Encode a batch of virtual-code rows into a model-input tensor
    /// (binary mode only — embedding lookups are parameters and live on the
    /// tape; see `ResMade::input_node`).
    /// `wildcard[r][v] = true` encodes column `v` of row `r` as absent.
    pub fn encode_batch(&self, rows: &[Vec<u32>], wildcard: Option<&[Vec<bool>]>) -> Tensor {
        assert_eq!(self.mode, EncodingMode::Binary, "encode_batch is for binary encodings");
        let mut t = Tensor::zeros(rows.len(), self.input_width);
        for (r, row_codes) in rows.iter().enumerate() {
            debug_assert_eq!(row_codes.len(), self.num_virtual());
            let out = t.row_mut(r);
            for (v, codec) in self.codecs.iter().enumerate() {
                let (s, e) = (self.input_offsets[v], self.input_offsets[v] + codec.width());
                let is_wild = wildcard.is_some_and(|w| w[r][v]);
                if is_wild {
                    codec.wildcard_into(&mut out[s..e]);
                } else {
                    codec.encode_into(row_codes[v], &mut out[s..e]);
                }
            }
        }
        t
    }

    /// The region of the **high** subcolumn induced by a region on the
    /// original column: high codes that admit at least one feasible low code.
    pub fn hi_region(region: &Region, lo_bits: usize, hi_domain: u32) -> Region {
        let mut codes = Vec::new();
        for &(lo, hi) in region.ranges() {
            let h0 = lo >> lo_bits;
            let h1 = (hi - 1) >> lo_bits;
            codes.extend(h0..=h1);
        }
        Region::from_codes(hi_domain, codes)
    }

    /// The conditional region of the **low** subcolumn given a sampled high
    /// code: `{ l : (h << lo_bits | l) ∈ region }`.
    pub fn lo_region_given_hi(region: &Region, lo_bits: usize, h: u32, lo_domain: u32) -> Region {
        let mut ranges = Vec::new();
        Self::lo_ranges_given_hi(region, lo_bits, h, lo_domain, &mut ranges);
        Region::from_codes(lo_domain, ranges.into_iter().flat_map(|(lo, hi)| lo..hi).collect())
    }

    /// [`Self::lo_region_given_hi`] as sorted, disjoint half-open code
    /// ranges written into a reusable buffer (cleared first): the same
    /// codes in the same order, without allocating a [`Region`].
    pub fn lo_ranges_given_hi(
        region: &Region,
        lo_bits: usize,
        h: u32,
        lo_domain: u32,
        out: &mut Vec<(u32, u32)>,
    ) {
        out.clear();
        let base = h << lo_bits;
        for &(lo, hi) in region.ranges() {
            let start = lo.max(base);
            let end = hi.min(base + (1 << lo_bits)).min(base.saturating_add(lo_domain));
            if start < end {
                out.push((start - base, end - base));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uae_data::{Table, Value};

    fn table(domains: &[usize]) -> Table {
        // Build tables where column j cycles through its domain.
        let rows = 64;
        let cols = domains
            .iter()
            .enumerate()
            .map(|(j, &d)| {
                let vals: Vec<Value> =
                    (0..rows).map(|r| Value::Int(((r + j) % d) as i64)).collect();
                (format!("c{j}"), vals)
            })
            .collect();
        Table::from_columns("t", cols)
    }

    #[test]
    fn bits_for_domains() {
        assert_eq!(bits_for(1), 1);
        assert_eq!(bits_for(2), 1);
        assert_eq!(bits_for(3), 2);
        assert_eq!(bits_for(4), 2);
        assert_eq!(bits_for(5), 3);
        assert_eq!(bits_for(2101), 12);
    }

    #[test]
    fn encode_decode_roundtrip() {
        let codec = ColumnCodec::new(37);
        for code in [0u32, 1, 17, 36] {
            let mut buf = vec![0.0; codec.width()];
            codec.encode_into(code, &mut buf);
            assert_eq!(buf[0], 1.0, "presence bit");
            let decoded: u32 = (0..codec.width() - 1).map(|b| (buf[b + 1] as u32) << b).sum();
            assert_eq!(decoded, code);
        }
    }

    #[test]
    fn wildcard_is_distinct_from_zero_code() {
        let codec = ColumnCodec::new(8);
        let mut zero = vec![0.0; codec.width()];
        codec.encode_into(0, &mut zero);
        let mut wild = vec![0.0; codec.width()];
        codec.wildcard_into(&mut wild);
        assert_ne!(zero, wild, "wildcard must not collide with code 0");
    }

    #[test]
    fn soft_matrix_rows_match_encoding() {
        let codec = ColumnCodec::new(6);
        let e = codec.soft_matrix();
        for v in 0..6u32 {
            let mut buf = vec![0.0; codec.width()];
            codec.encode_into(v, &mut buf);
            assert_eq!(e.row(v as usize), &buf[..]);
        }
    }

    #[test]
    fn unfactorized_schema_shapes() {
        let t = table(&[5, 2, 11]);
        let s = VirtualSchema::build(&t, usize::MAX);
        assert_eq!(s.num_virtual(), 3);
        assert_eq!(s.logit_width(), 5 + 2 + 11);
        // widths: (3+1) + (1+1) + (4+1)
        assert_eq!(s.input_width(), 4 + 2 + 5);
        assert_eq!(s.logit_slice(1), (5, 7));
    }

    #[test]
    fn factorized_schema_round_trips_codes() {
        let t = table(&[50, 3]);
        let s = VirtualSchema::build(&t, 16);
        assert_eq!(s.num_virtual(), 3, "50 splits into hi+lo, 3 stays single");
        match s.entries()[0] {
            ColEntry::Split { hi, lo, lo_bits } => {
                assert_eq!(lo_bits, 3); // 6 bits total → 3 lo bits
                for code in [0u32, 7, 8, 49] {
                    let v = s.to_virtual_codes(&[code, 0]);
                    assert_eq!((v[hi] << lo_bits) | v[lo], code);
                }
            }
            _ => panic!("wide column must be split"),
        }
    }

    #[test]
    fn virtual_codes_match_per_row_mapping() {
        let t = table(&[50, 3, 7]);
        let s = VirtualSchema::build(&t, 16);
        let vc = s.virtual_codes(&t);
        for r in 0..t.num_rows() {
            let row = s.to_virtual_codes(&t.row_codes(r));
            let got: Vec<u32> = vc.iter().map(|col| col[r]).collect();
            assert_eq!(got, row);
        }
    }

    #[test]
    fn hi_lo_region_translation_is_exact() {
        // Original domain 50, lo_bits 3 (base 8). Region [5, 21).
        let region = Region::range(50, 5, 21);
        let hi = VirtualSchema::hi_region(&region, 3, 7);
        assert_eq!(hi.iter_codes().collect::<Vec<_>>(), vec![0, 1, 2]);
        // h=0 → lo in [5,8); h=1 → all; h=2 → lo in [0,5)
        let lo0 = VirtualSchema::lo_region_given_hi(&region, 3, 0, 8);
        assert_eq!(lo0.iter_codes().collect::<Vec<_>>(), vec![5, 6, 7]);
        let lo1 = VirtualSchema::lo_region_given_hi(&region, 3, 1, 8);
        assert_eq!(lo1.count(), 8);
        let lo2 = VirtualSchema::lo_region_given_hi(&region, 3, 2, 8);
        assert_eq!(lo2.iter_codes().collect::<Vec<_>>(), vec![0, 1, 2, 3, 4]);
        // Exactness: every original code is admitted iff (hi, lo) pair is.
        for code in 0..50u32 {
            let (h, l) = (code >> 3, code & 7);
            let admitted =
                hi.contains(h) && VirtualSchema::lo_region_given_hi(&region, 3, h, 8).contains(l);
            assert_eq!(admitted, region.contains(code), "code {code}");
        }
    }

    #[test]
    fn degrees_follow_virtual_order() {
        let t = table(&[5, 2]);
        let s = VirtualSchema::build(&t, usize::MAX);
        let (ind, outd) = s.degrees();
        assert_eq!(ind, vec![1, 1, 1, 1, 2, 2]);
        assert_eq!(outd, vec![1, 1, 1, 1, 1, 2, 2]);
    }

    #[test]
    fn encode_batch_with_wildcards() {
        let t = table(&[5, 2]);
        let s = VirtualSchema::build(&t, usize::MAX);
        let rows = vec![vec![3u32, 1], vec![0, 0]];
        let wild = vec![vec![false, true], vec![false, false]];
        let enc = s.encode_batch(&rows, Some(&wild));
        assert_eq!(enc.shape(), (2, s.input_width()));
        // Row 0 col 1 is wildcard: its block is zero.
        let (b, e) = s.input_slice(1);
        assert!(enc.row(0)[b..e].iter().all(|&x| x == 0.0));
        // Row 1 col 0 encodes code 0 with presence bit set.
        let (b0, _) = s.input_slice(0);
        assert_eq!(enc.row(1)[b0], 1.0);
    }
}
