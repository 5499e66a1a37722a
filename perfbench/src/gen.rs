//! Seeded input generation: the random stream, the kernel sources every
//! path compiles, and the seeded cold-kernel variants.

use std::path::Path;

/// splitmix64 — deterministic and dependency-free.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// The stream for `seed`, split by `stream` so that independent
    /// draws (arrivals, classes, variants) never share state.
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut rng = Rng(seed ^ stream.wrapping_mul(0xd1b5_4a32_d192_ed03));
        rng.next_u64();
        rng
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..bound`.
    pub fn below(&mut self, bound: u64) -> u64 {
        self.next_u64() % bound.max(1)
    }

    /// Uniform in `(0, 1]`.
    pub fn unit(&mut self) -> f64 {
        ((self.next_u64() >> 11) as f64 + 1.0) / (1u64 << 53) as f64
    }

    /// An exponential inter-arrival gap, in seconds, at `rate` per second.
    pub fn exp_gap(&mut self, rate: f64) -> f64 {
        -self.unit().ln() / rate
    }
}

/// A named kernel source.
#[derive(Debug, Clone)]
pub struct Source {
    pub name: String,
    pub text: String,
}

/// The 16 Table 3 suite kernels at `scale`.
pub fn suite_sources(scale: usize) -> Vec<Source> {
    slp::suite::catalog()
        .into_iter()
        .map(|spec| Source {
            name: spec.name.to_string(),
            text: slp::suite::source(spec.name, scale),
        })
        .collect()
}

/// The batch inputs: 16 suite kernels, 4 branchy kernels and every
/// `examples/kernels/*.slp` under `root`, in that order.
pub fn batch_sources(root: &Path) -> std::io::Result<Vec<Source>> {
    let mut out = suite_sources(1);
    for name in slp::suite::branchy_catalog() {
        out.push(Source {
            name: name.to_string(),
            text: slp::suite::branchy_source(name, 1),
        });
    }
    let mut files: Vec<_> = std::fs::read_dir(root.join("examples/kernels"))?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "slp"))
        .collect();
    files.sort();
    for path in files {
        out.push(Source {
            name: path
                .file_stem()
                .map(|s| s.to_string_lossy().into_owned())
                .unwrap_or_default(),
            text: std::fs::read_to_string(&path)?,
        });
    }
    Ok(out)
}

/// A cold variant of suite kernel `base`: the kernel is renamed after
/// `tag` and the constant of its serial epilogue is perturbed, so the
/// text (and fingerprint) is new while the compile does exactly the
/// work of the base kernel.
pub fn cold_variant(base: &Source, tag: u64) -> Source {
    let name = format!("{}_c{:012x}", base.name, tag & 0xffff_ffff_ffff);
    let text = base
        .text
        .replacen(
            &format!("kernel {} {{", base.name),
            &format!("kernel {name} {{"),
            1,
        )
        .replacen(
            "SERIAL_[s_] * 0.97;",
            &format!("SERIAL_[s_] * 0.9{:06};", tag % 1_000_000),
            1,
        );
    Source { name, text }
}

/// Tokens `slp-lang`'s lexer produces for `text` (0 if it does not lex).
pub fn token_count(text: &str) -> usize {
    slp::lang::lex(text).map_or(0, |t| t.len())
}
