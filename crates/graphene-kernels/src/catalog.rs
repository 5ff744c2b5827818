//! The named-kernel catalog: one shared front door for every surface
//! that builds a paper kernel from *stringly* options — the CLI
//! sub-commands and the serve daemon's wire requests both delegate
//! here, so a kernel built from `graphene run gemm --m 256` and one
//! built from `{"cmd":"run","kernel":"gemm","m":256}` are the same
//! kernel by construction (and therefore execute bit-identically).
//!
//! Besides the kernel itself, [`build_named`] returns a canonical
//! *problem key* summarizing every size option that shaped the build.
//! Resident caches (the daemon's plan/trace caches) must key on it:
//! grid/block dimensions alone are not injective — two different GEMM
//! problems can share a launch shape — so a cache keyed only on the
//! launch would serve the wrong trace.

use crate::fmha::FmhaConfig;
use crate::gemm::{build_gemm, build_gemm_double_buffered, Epilogue, GemmConfig};
use crate::layernorm::{build_layernorm, LayernormConfig};
use crate::lstm::{build_fused_lstm, LstmConfig};
use crate::mlp::{build_fused_mlp, MlpConfig};
use crate::softmax::{build_softmax, SoftmaxConfig};
use graphene_ir::{Arch, Kernel};
use std::collections::HashMap;

/// A catalog-built kernel plus its canonical problem key.
#[derive(Debug)]
pub struct NamedKernel {
    /// The built kernel.
    pub kernel: Kernel,
    /// Canonical problem key: every consumed size option, in a fixed
    /// order (e.g. `m256_n256_k64_none`). Cache keys include it.
    pub problem: String,
}

/// Reads `--key` as an integer with a default.
///
/// # Errors
///
/// Non-integer values report the offending key and value.
pub fn opt_int(opts: &HashMap<String, String>, key: &str, default: i64) -> Result<i64, String> {
    match opts.get(key) {
        None => Ok(default),
        Some(v) => v.parse().map_err(|_| format!("--{key} expects an integer, got `{v}`")),
    }
}

/// Parses an `--epilogue` option value.
///
/// # Errors
///
/// Unknown epilogue names.
pub fn parse_epilogue(value: Option<&str>) -> Result<Epilogue, String> {
    match value {
        None | Some("none") => Ok(Epilogue::None),
        Some("bias") => Ok(Epilogue::Bias),
        Some("relu") => Ok(Epilogue::Relu),
        Some("bias+relu") => Ok(Epilogue::BiasRelu),
        Some("bias+gelu") => Ok(Epilogue::BiasGelu),
        Some(other) => Err(format!("unknown epilogue `{other}`")),
    }
}

/// Short label of an epilogue, for problem keys.
fn epilogue_label(e: Epilogue) -> &'static str {
    match e {
        Epilogue::None => "none",
        Epilogue::Bias => "bias",
        Epilogue::Relu => "relu",
        Epilogue::BiasRelu => "bias+relu",
        Epilogue::BiasGelu => "bias+gelu",
    }
}

/// Builds the kernel `name` names from string options, applying the
/// same defaults and validity checks for every caller.
///
/// Recognized names: `gemm`, `gemm-db`, `mlp`, `lstm`, `layernorm`,
/// `softmax`, `fmha`.
///
/// # Errors
///
/// A user-facing message for unknown names, malformed or non-positive
/// sizes, or shape/arch combinations the schedule cannot lower.
pub fn build_named(
    name: &str,
    arch: Arch,
    opts: &HashMap<String, String>,
) -> Result<NamedKernel, String> {
    // Every option here is a size: anything below 1 is rejected before
    // it reaches a layout or a builder assertion.
    let int = |key: &str, default: i64| match opt_int(opts, key, default)? {
        v if v >= 1 => Ok(v),
        v => Err(format!("--{key} must be positive, got {v}")),
    };
    match name {
        "gemm" | "gemm-db" => {
            let (m, n, k) = (int("m", 1024)?, int("n", 1024)?, int("k", 1024)?);
            let epilogue = parse_epilogue(opts.get("epilogue").map(String::as_str))?;
            let cfg = GemmConfig::cublas_like(m, n, k);
            if m % cfg.bm != 0 || n % cfg.bn != 0 || k % cfg.bk != 0 {
                return Err(format!("gemm sizes must tile by {}x{}x{}", cfg.bm, cfg.bn, cfg.bk));
            }
            let problem = format!("m{m}_n{n}_k{k}_{}", epilogue_label(epilogue));
            if name == "gemm-db" {
                if arch != Arch::Sm86 {
                    return Err(
                        "the double-buffered GEMM schedule targets Ampere (use --arch sm86)".into(),
                    );
                }
                Ok(NamedKernel { kernel: build_gemm_double_buffered(&cfg, epilogue), problem })
            } else {
                Ok(NamedKernel { kernel: build_gemm(arch, &cfg, epilogue), problem })
            }
        }
        "mlp" => {
            let cfg = MlpConfig::paper(int("m", 4096)?, int("layers", 4)?);
            let cfg = MlpConfig { hidden: int("hidden", 128)?, ..cfg };
            cfg.validate(arch)?;
            let problem = format!("m{}_hidden{}_layers{}", cfg.m, cfg.hidden, cfg.layers);
            Ok(NamedKernel { kernel: build_fused_mlp(arch, &cfg), problem })
        }
        "lstm" => {
            let cfg = LstmConfig::paper(int("m", 4096)?);
            let cfg = LstmConfig { hidden: int("hidden", 128)?, ..cfg };
            cfg.validate(arch)?;
            let problem = format!("m{}_hidden{}", cfg.m, cfg.hidden);
            Ok(NamedKernel { kernel: build_fused_lstm(arch, &cfg), problem })
        }
        "layernorm" => {
            let (rows, hidden) = (int("rows", 4096)?, int("hidden", 1024)?);
            if hidden % 256 != 0 {
                return Err(format!("layernorm --hidden must be a multiple of 256, got {hidden}"));
            }
            if rows % 4 != 0 {
                return Err(format!("layernorm --rows must be a multiple of 4, got {rows}"));
            }
            let cfg = LayernormConfig::new(rows, hidden);
            let problem = format!("rows{rows}_hidden{hidden}");
            Ok(NamedKernel { kernel: build_layernorm(arch, &cfg), problem })
        }
        "softmax" => {
            let (rows, cols) = (int("rows", 4096)?, int("cols", 1024)?);
            if cols % 256 != 0 {
                return Err(format!("softmax --cols must be a multiple of 256, got {cols}"));
            }
            if rows % 4 != 0 {
                return Err(format!("softmax --rows must be a multiple of 4, got {rows}"));
            }
            let cfg = SoftmaxConfig::new(rows, cols);
            let problem = format!("rows{rows}_cols{cols}");
            Ok(NamedKernel { kernel: build_softmax(arch, &cfg), problem })
        }
        "fmha" => {
            if arch != Arch::Sm86 {
                return Err("the fused FMHA schedule targets Ampere (use --arch sm86)".into());
            }
            let base = FmhaConfig::mlperf_bert();
            let cfg = FmhaConfig {
                heads: int("heads", base.heads)?,
                seq: int("seq", base.seq)?,
                d: int("d", base.d)?,
                ..base
            };
            if cfg.seq % cfg.bq != 0 || cfg.d % 16 != 0 || cfg.seq % 16 != 0 {
                return Err(format!(
                    "fmha requires seq % {} == 0 and d % 16 == 0 (got seq {}, d {})",
                    cfg.bq, cfg.seq, cfg.d
                ));
            }
            let problem = format!("heads{}_seq{}_d{}", cfg.heads, cfg.seq, cfg.d);
            Ok(NamedKernel { kernel: crate::fmha::build_fused_fmha(Arch::Sm86, &cfg), problem })
        }
        other => {
            Err(format!("unknown kernel `{other}` (gemm|gemm-db|mlp|lstm|layernorm|softmax|fmha)"))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn opts(pairs: &[(&str, &str)]) -> HashMap<String, String> {
        pairs.iter().map(|(k, v)| (k.to_string(), v.to_string())).collect()
    }

    #[test]
    fn problem_keys_distinguish_same_launch_shapes() {
        // Same grid/block for both, different problems: the key must
        // differ or a resident trace cache would serve the wrong trace.
        let a = build_named("gemm", Arch::Sm86, &opts(&[("m", "1024"), ("n", "256"), ("k", "64")]))
            .unwrap();
        let b = build_named("gemm", Arch::Sm86, &opts(&[("m", "256"), ("n", "1024"), ("k", "64")]))
            .unwrap();
        assert_eq!(a.kernel.grid_size(), b.kernel.grid_size());
        assert_ne!(a.problem, b.problem);
    }

    #[test]
    fn epilogue_is_part_of_the_problem_key() {
        let o = opts(&[("m", "256"), ("n", "256"), ("k", "64")]);
        let mut oe = o.clone();
        oe.insert("epilogue".into(), "bias+relu".into());
        let plain = build_named("gemm", Arch::Sm86, &o).unwrap();
        let fused = build_named("gemm", Arch::Sm86, &oe).unwrap();
        assert_ne!(plain.problem, fused.problem);
    }

    #[test]
    fn errors_match_the_cli_contract() {
        assert!(build_named("frobnicate", Arch::Sm86, &opts(&[]))
            .unwrap_err()
            .contains("unknown kernel"));
        assert!(build_named("gemm", Arch::Sm86, &opts(&[("m", "100")]))
            .unwrap_err()
            .contains("must tile by"));
        assert!(build_named("fmha", Arch::Sm70, &opts(&[])).unwrap_err().contains("Ampere"));
        assert!(build_named("layernorm", Arch::Sm86, &opts(&[("hidden", "100")]))
            .unwrap_err()
            .contains("multiple of 256"));
        assert!(build_named("gemm", Arch::Sm86, &opts(&[("m", "abc")]))
            .unwrap_err()
            .contains("expects an integer"));
    }

    #[test]
    fn every_catalog_kernel_builds() {
        let cases: &[(&str, &[(&str, &str)])] = &[
            ("gemm", &[("m", "256"), ("n", "256"), ("k", "64")]),
            ("gemm-db", &[("m", "256"), ("n", "256"), ("k", "64")]),
            ("mlp", &[("m", "256"), ("layers", "2")]),
            ("lstm", &[("m", "256")]),
            ("layernorm", &[("rows", "64"), ("hidden", "512")]),
            ("softmax", &[("rows", "64"), ("cols", "512")]),
            ("fmha", &[]),
        ];
        for (name, o) in cases {
            let nk = build_named(name, Arch::Sm86, &opts(o))
                .unwrap_or_else(|e| panic!("{name} failed: {e}"));
            assert!(!nk.problem.is_empty());
        }
    }
}
