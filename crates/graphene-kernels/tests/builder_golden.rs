//! Golden hashes of builder output: the generated CUDA and the printed
//! IR of every tensor-core builder, pinned so a refactor of the builders
//! cannot change a single byte of what they emit.
//!
//! Each entry pins `Fnv1a(generate(&k, arch))` and `Fnv1a(k.to_string())`.
//! The constants were recorded once and must never be edited to make a
//! builder change pass: a mismatch means the builder changed its output.

use graphene_ir::{Arch, Fnv1a, Kernel};
use graphene_kernels::catalog::build_named;
use graphene_kernels::fmha::{build_fused_fmha, FmhaConfig};
use graphene_kernels::gemm::{
    build_batched_gemm, build_gemm, build_gemm_double_buffered, build_gemm_no_ldmatrix,
    build_gemm_parametric_m, build_gemm_partial_m, Epilogue, GemmConfig,
};
use graphene_kernels::lstm::{build_fused_lstm, LstmConfig};
use graphene_kernels::mlp::{build_fused_mlp, MlpConfig};
use std::collections::HashMap;

fn hash(text: &str) -> u64 {
    Fnv1a::new().bytes(text.as_bytes()).finish()
}

/// `(cuda, ir)` hashes of one kernel.
fn hashes(kernel: &Kernel, arch: Arch) -> (u64, u64) {
    let cuda = graphene_codegen::generate(kernel, arch).expect("codegen");
    (hash(&cuda), hash(&kernel.to_string()))
}

/// Checks every case and reports all mismatches at once.
fn check(cases: Vec<(String, Kernel, Arch, u64, u64)>) {
    let mut bad = Vec::new();
    for (label, kernel, arch, cuda, ir) in cases {
        let got = hashes(&kernel, arch);
        if got != (cuda, ir) {
            bad.push(format!("{label}: got (0x{:016x}, 0x{:016x})", got.0, got.1));
        }
    }
    assert!(bad.is_empty(), "builder output changed:\n{}", bad.join("\n"));
}

fn arch_label(arch: Arch) -> &'static str {
    match arch {
        Arch::Sm70 => "sm70",
        Arch::Sm86 => "sm86",
    }
}

#[test]
fn build_gemm_output_is_pinned() {
    let pinned: [(Arch, Epilogue, bool, u64, u64); 8] = [
        (Arch::Sm86, Epilogue::None, false, 0x7a1f84123e0b8a81, 0xf9dc4e70f7b3b043),
        (Arch::Sm86, Epilogue::None, true, 0x0773de60632026d0, 0x3219cc2eac580dcf),
        (Arch::Sm86, Epilogue::BiasRelu, false, 0x5d48187b821779ce, 0x96cdcb65ee022d0c),
        (Arch::Sm86, Epilogue::BiasRelu, true, 0x20acb4be7823e0dd, 0xf4f333fc49dc978c),
        (Arch::Sm70, Epilogue::None, false, 0x35d483fc36241631, 0x38329e1c0eb7b4eb),
        (Arch::Sm70, Epilogue::None, true, 0xad069cc16f608fa3, 0x5c0091929d6d3065),
        (Arch::Sm70, Epilogue::BiasRelu, false, 0x326cf5c6a69ea540, 0x1318caec218fd4b6),
        (Arch::Sm70, Epilogue::BiasRelu, true, 0x79a0907d5182f942, 0xe868e7fb271b83ac),
    ];
    let cases = pinned
        .into_iter()
        .map(|(arch, epilogue, cublas, cuda, ir)| {
            let cfg = if cublas {
                GemmConfig::cublas_like(256, 256, 64)
            } else {
                GemmConfig::small(64, 64, 32)
            };
            let label = format!("gemm {} {:?} cublas_like={cublas}", arch_label(arch), epilogue);
            (label, build_gemm(arch, &cfg, epilogue), arch, cuda, ir)
        })
        .collect();
    check(cases);
}

#[test]
fn gemm_variant_output_is_pinned() {
    let small = GemmConfig::small(64, 64, 48);
    let cases = vec![
        (
            "partial_m".to_string(),
            build_gemm_partial_m(&GemmConfig::small(40, 64, 32), Epilogue::BiasRelu),
            Arch::Sm86,
            0x0a4983c9d73a9562,
            0xfa6dbec659bcb6fb,
        ),
        (
            "parametric_m".to_string(),
            build_gemm_parametric_m(&GemmConfig::small(64, 64, 32), Epilogue::Relu),
            Arch::Sm86,
            0x91bd597f6c214bb5,
            0xe9554b3b5b071c4d,
        ),
        (
            "no_ldmatrix".to_string(),
            build_gemm_no_ldmatrix(&small, Epilogue::Bias),
            Arch::Sm86,
            0x0e2cf80cfe5d0075,
            0x8fb95513b1e7f2c8,
        ),
        (
            "batched x3".to_string(),
            build_batched_gemm(Arch::Sm86, &GemmConfig::small(32, 64, 32), 3),
            Arch::Sm86,
            0xdf3e7077c3a8d65a,
            0x4c56439d52aaa0a4,
        ),
        (
            "double_buffered odd slices".to_string(),
            build_gemm_double_buffered(&small, Epilogue::BiasRelu),
            Arch::Sm86,
            0x28f68dc7e52c6b7a,
            0xfe8d2274ad72ed39,
        ),
        (
            "double_buffered cublas_like".to_string(),
            build_gemm_double_buffered(&GemmConfig::cublas_like(256, 256, 128), Epilogue::None),
            Arch::Sm86,
            0x2351273055053f46,
            0x1307be5f5d16ada4,
        ),
    ];
    check(cases);
}

#[test]
fn fused_kernel_output_is_pinned() {
    let mlp = MlpConfig { m: 64, hidden: 32, layers: 3, bm: 32, wm: 32, wn: 32 };
    let lstm = LstmConfig { m: 64, hidden: 32, bm: 32, wm: 32, wn: 32 };
    let fmha = FmhaConfig { heads: 2, seq: 64, d: 32, bq: 32, wm: 32 };
    let cases = vec![
        (
            "mlp sm86".to_string(),
            build_fused_mlp(Arch::Sm86, &mlp),
            Arch::Sm86,
            0x833746ab28d05efa,
            0x0484d93ce3bbf387,
        ),
        (
            "mlp sm70".to_string(),
            build_fused_mlp(Arch::Sm70, &mlp),
            Arch::Sm70,
            0x7f0f502d77b40829,
            0x70457e1c70a3e60d,
        ),
        (
            "mlp paper sm86".to_string(),
            build_fused_mlp(Arch::Sm86, &MlpConfig::paper(256, 2)),
            Arch::Sm86,
            0x7853e398abc168e6,
            0xfca729927e51bbe5,
        ),
        (
            "mlp paper sm70".to_string(),
            build_fused_mlp(Arch::Sm70, &MlpConfig::paper(256, 2)),
            Arch::Sm70,
            0x34c0cf6e2d5b49b4,
            0x7370497e4e3c9b9c,
        ),
        (
            "lstm sm86".to_string(),
            build_fused_lstm(Arch::Sm86, &lstm),
            Arch::Sm86,
            0x662625ada6cbb605,
            0x507a0f142b75f045,
        ),
        (
            "lstm sm70".to_string(),
            build_fused_lstm(Arch::Sm70, &lstm),
            Arch::Sm70,
            0x679f1b8b8c98bbaf,
            0x9277bd240466b03e,
        ),
        (
            "lstm paper sm86".to_string(),
            build_fused_lstm(Arch::Sm86, &LstmConfig::paper(256)),
            Arch::Sm86,
            0x2f5fc45fce1e8e82,
            0x446805f2165bfed5,
        ),
        (
            "lstm paper sm70".to_string(),
            build_fused_lstm(Arch::Sm70, &LstmConfig::paper(256)),
            Arch::Sm70,
            0x8536d920cc70b3af,
            0xb21b0717c1862450,
        ),
        (
            "fmha".to_string(),
            build_fused_fmha(Arch::Sm86, &fmha),
            Arch::Sm86,
            0xe130cf89464ca244,
            0x5f17cff9d8146b7d,
        ),
    ];
    check(cases);
}

#[test]
fn catalog_defaults_are_pinned() {
    let pinned: [(&str, Arch, u64, u64); 10] = [
        ("gemm", Arch::Sm86, 0x5180dce941e6c087, 0x6beafd08ec4b8d91),
        ("gemm", Arch::Sm70, 0x005170fc2f9d97e4, 0x2a05f0e8e71c9009),
        ("gemm-db", Arch::Sm86, 0xde752e9eb7f97860, 0x2b2cab03e430e971),
        ("mlp", Arch::Sm86, 0x6bc43f33cf80c60b, 0x88e23e5fc497d9e7),
        ("mlp", Arch::Sm70, 0x649c21816dec2d35, 0x5edab27c1dfcfc38),
        ("lstm", Arch::Sm86, 0x2f5fc45fce1e8e82, 0xa4205b4e5fcea0ee),
        ("lstm", Arch::Sm70, 0x8536d920cc70b3af, 0xd519d0fd135d87b9),
        ("layernorm", Arch::Sm86, 0x5b1acc0b4e62076e, 0x41d41054fa4f8c84),
        ("softmax", Arch::Sm86, 0x399d07659f17e395, 0xe92b825aa881369a),
        ("fmha", Arch::Sm86, 0xd1a0c47be23c3521, 0xee3574e2de0215f6),
    ];
    let cases = pinned
        .into_iter()
        .map(|(name, arch, cuda, ir)| {
            let kernel = build_named(name, arch, &HashMap::new()).expect("catalog default").kernel;
            (format!("catalog {name} {}", arch_label(arch)), kernel, arch, cuda, ir)
        })
        .collect();
    check(cases);
}
