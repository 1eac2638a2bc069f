//! Pinned outputs of the static layer (compile gate, verifier, prover).
//!
//! For every built-in workload, compiled under both slice sets, three
//! digests: the compile report's JSON (which carries the gate's verify
//! report and the validation counters), the annotated binary's image, and
//! a standalone [`verify`] of that binary's JSON together with each slice's
//! [`SliceVerdict`](amnesiac_absint::SliceVerdict). `crosscheck.rs` compares
//! the gate with a standalone pass within one build; these digests hold all
//! three outputs fixed from one change to the next. All 33 workloads run at
//! test scale; two ignored tests cover the focal kernels and the serve
//! benchmark's compile sweep (`amnesiac_loadgen::PAPER_SWEEP`) at paper
//! scale (run them in release).

use amnesiac_absint::Analysis;
use amnesiac_compiler::{compile, CompileOptions};
use amnesiac_isa::encode_program;
use amnesiac_loadgen::PAPER_SWEEP;
use amnesiac_mem::hash128;
use amnesiac_profile::profile_program;
use amnesiac_sim::CoreConfig;
use amnesiac_telemetry::ToJson;
use amnesiac_verify::verify;
use amnesiac_workloads::{all_workloads, Scale, Workload, FOCAL_NAMES, KERNELS};

/// `(name, [compile report, image, verify and verdicts])` digests.
type Pin = (&'static str, [u128; 3]);

/// Test scale, in `all_workloads` order.
#[rustfmt::skip]
const TEST_SCALE: [Pin; 33] = [
    ("mcf", [0x016ef84b5d4e7209d9db323e7f0fcf9b, 0xdc2f5a37c1af7d6fe22e427f93f3478a, 0x96f11476ebdd998d75f056a7b7d5b2e0]),
    ("sx", [0xb6692c2ef61e5e3d19c76a1a7680f3b6, 0x64e7220ad3568723a39ad496e0712baa, 0x7bde470abac56ff0dd5398227a320eb8]),
    ("cg", [0x8ce0947516c63aa9a6a314800212eb45, 0xbb6f156cdc0ef3d7cb45ab1914a096a9, 0x7bde470abac56ff0dd5398227a320eb8]),
    ("is", [0x71f254cba57aea32855908acb9e482bf, 0x3897c223db0d17f1ff1b096c2be0aad8, 0x62f6d6b036379526ce535ad0c5d3fa8e]),
    ("ca", [0x016ef84b5d4e7209d9db323e7f0fcf9b, 0xc23226a90953eea7967f4f0f73131de5, 0x96f11476ebdd998d75f056a7b7d5b2e0]),
    ("fs", [0x016ef84b5d4e7209d9db323e7f0fcf9b, 0xf916143420a0f9bee4332aa750a9486b, 0x96f11476ebdd998d75f056a7b7d5b2e0]),
    ("fe", [0xe01a2a0b758a832983612ee1d9a77aeb, 0x39bcd0d4244f9ed76e25630bc3a54c94, 0x96f11476ebdd998d75f056a7b7d5b2e0]),
    ("rt", [0xc2356f77f20a82a263896cd054e73052, 0xe2758109dd4c13d9b1c5d3c4fe28f8e1, 0x6a092473da8d05935974c77e527e6496]),
    ("bp", [0xb90636a2e9565b41391065c0141f122e, 0x34cb351e5c51e6b2ba596313c3be475e, 0x230779ab9ec8d4bd607ee21c547a1c95]),
    ("bfs", [0xe13ceb9b1e289cb27fa4a739080a09df, 0x1e7658745535c199aed492e7c52d4697, 0x9476924051d9f621b89fdee15694650b]),
    ("sr", [0x0e8669ce51bdc6e8eb3a11f6224dc91b, 0x89b935533826cf8dc7a2c137566aaf7f, 0xde6e7d6e50f3305bfd0e98037a1ff3ff]),
    ("blackscholes", [0x140453d13a68cb12537efaaf72f50edd, 0xe6452b045060e1b53c6adad6357c6b6e, 0xc2f3b2093cdac2c7ecae54f0b17656dc]),
    ("swaptions", [0xf55d7a1430af7966e3ea5e2d6f61b8e4, 0xc249c4b66c65cdaafb6fea99eb7f57ca, 0xc2f3b2093cdac2c7ecae54f0b17656dc]),
    ("freqmine", [0xf2397b830eaf9af8b1964946fcb3ed80, 0x1246deabe44a9c10a94f0ba52e8053c5, 0x96f11476ebdd998d75f056a7b7d5b2e0]),
    ("kmeans", [0xc76d7d0c4d5cd9f842acbdd81aa17a8d, 0xfe390b69b57f1deed10c8c1f8e62473f, 0xc2f3b2093cdac2c7ecae54f0b17656dc]),
    ("hotspot", [0x34cc0e04c347fb5c8437508e860a05ef, 0xbdddcfb40da5117200d2bfa843aa633e, 0xd45109a85273c8ce460e530bbc34fb4c]),
    ("perlbench", [0xece146adda335cc0941a04c585acc4fd, 0x47f48137ab87bdf05b0e1ac50be523fa, 0x96f11476ebdd998d75f056a7b7d5b2e0]),
    ("gobmk", [0xece146adda335cc0941a04c585acc4fd, 0x7af00c92e7e75279520e39c23a1a4946, 0x96f11476ebdd998d75f056a7b7d5b2e0]),
    ("calculix", [0xb208fc3b59e52f52d94a9cf353b352f7, 0x60369e7578d2f9f2c43802f6441a0cfb, 0x7bde470abac56ff0dd5398227a320eb8]),
    ("GemsFDTD", [0x15e45f62ab8972ef0049f36c2e1aafbb, 0x6013b482a3c2969e6030fa7f7f73825d, 0xbc62dfd847cd3c0ea64eb084b7c2300a]),
    ("libquantum", [0x5623d652f21e184089a08908f030eb04, 0x594cb84805375e4c25cfbc0d67d173db, 0x7bde470abac56ff0dd5398227a320eb8]),
    ("soplex", [0x05ad503d548456c73ea46fd5266e75b7, 0x8d69f1ba834a5aaa631fffa0cba17e34, 0x7bde470abac56ff0dd5398227a320eb8]),
    ("lbm", [0x8aee4f15e0300bdad03139eb3e1c42e1, 0x59d867e608d1ff98ea5c33814442c8df, 0xb4180ac2adaec9e83bb3853fe72bf1b9]),
    ("omnetpp", [0x140453d13a68cb12537efaaf72f50edd, 0xea88efd91214b237889af662ab92f5c6, 0xc2f3b2093cdac2c7ecae54f0b17656dc]),
    ("mg", [0xc1a3b13877b8299d1f110228528916d2, 0x69cddbd46803f919aa06cbc247c8fbff, 0xf8b85ba47eb230aefcf953d0f806011f]),
    ("ft", [0xb208fc3b59e52f52d94a9cf353b352f7, 0xfac3738809dd50f6a608cc4da75a68fd, 0x7bde470abac56ff0dd5398227a320eb8]),
    ("x264", [0xf2397b830eaf9af8b1964946fcb3ed80, 0xa9203b4c919f7a6e8b4a53cc15b48308, 0x96f11476ebdd998d75f056a7b7d5b2e0]),
    ("dedup", [0xa8b3dff06cd81508a4347fccb411f5e8, 0x2d427afa5c41fbe4e97efc61ccbefa8f, 0xc2f3b2093cdac2c7ecae54f0b17656dc]),
    ("fluidanimate", [0xb208fc3b59e52f52d94a9cf353b352f7, 0x49fcd45ee38a64f999fc5ef23064483e, 0x7bde470abac56ff0dd5398227a320eb8]),
    ("streamcluster", [0xcbd018be134dcfb89b810221db9bb0a1, 0xdb5addaec07d023b1b4e2f6dd75c9a93, 0x96f11476ebdd998d75f056a7b7d5b2e0]),
    ("bodytrack", [0xf55d7a1430af7966e3ea5e2d6f61b8e4, 0xf86a75fd27d632543843f2abe10a5c8b, 0xc2f3b2093cdac2c7ecae54f0b17656dc]),
    ("nw", [0x05ad503d548456c73ea46fd5266e75b7, 0x6c98b96f9223c567540faba99c23297c, 0x7bde470abac56ff0dd5398227a320eb8]),
    ("particlefilter", [0xf55d7a1430af7966e3ea5e2d6f61b8e4, 0x84cd1987b960decd137e96b166fb054d, 0xc2f3b2093cdac2c7ecae54f0b17656dc]),
];

/// Paper scale: the focal kernels, then the rest of `PAPER_SWEEP`.
#[rustfmt::skip]
const PAPER_SCALE: [Pin; 26] = [
    ("mcf", [0x15220328d6425d8cdac8800fdbedbbe2, 0x918baaf3af36c218c00dd2e684aa62c5, 0x9ffcd013c7ee054334cf890cfa3b67f2]),
    ("sx", [0x261177a3d94a291992ea04368cdc5d7e, 0xdfeb1b373a33869127fb1bc99f8fd494, 0xc7245e7a54721d3a61d4128f9fa68d24]),
    ("cg", [0x8b781700f953631f432d349d739d22f8, 0x4c197031c099a7ad759b512eb4ad98b9, 0x46d604d4161d694628a82e5b1f617fd7]),
    ("is", [0x47e59c698ff5f69062b544caffb09d8a, 0x7ef407354ddafd4af0322948ed522c00, 0x6bee0a40335ac601c4b2f0b30fb5a5b5]),
    ("ca", [0xceb65ad7dad4d4d5870e99900f882755, 0xd2735c734314cb5ca65f10f5c9906691, 0xa01d7af205172ff8d8eefa795cb26c64]),
    ("fs", [0xf90e9d77903ab25d54ba1476095e9631, 0x61a20dd19f5414dfb52b503076171f27, 0xe585bef0b3567c56492d998f29a05bbb]),
    ("fe", [0xd4c6926d568049954f9be4954549d0b0, 0x256836ada280c7966f225ff0f2ba9fec, 0xd20cff92313a5c490a4bf2df8a1669c8]),
    ("rt", [0x09f82a54d16cfe45d1303e0003965eba, 0xd0fdb4b839333dc904de14c537b2b1fa, 0xc25d2b847b2cbd6985889f2d16812e14]),
    ("bp", [0x9ef0d3d6bb9e50cfe43463f8d09e4126, 0xc35946509b8c83214ac33c59ce7302fc, 0x16033c40ce33579869adce286dd1e873]),
    ("bfs", [0x1a7278fb5379627418efa9c030e9260a, 0x0bad34fd9d0119c03e01dd370f9c7ff2, 0xdbca068c0a7b7d27f7cf499115f9bf93]),
    ("sr", [0xa82e202c619a079f37ab85022960ebe0, 0x70ef529ed7c5f3db677119fdbe50e5e4, 0x5f267531cd0840932ed22567ee3c76fd]),
    ("blackscholes", [0x140453d13a68cb12537efaaf72f50edd, 0x4de1279ad855890b7d6319d6aa0b60a0, 0xc2f3b2093cdac2c7ecae54f0b17656dc]),
    ("swaptions", [0xf55d7a1430af7966e3ea5e2d6f61b8e4, 0xa002cc43949d84bb3b293eee8d140c04, 0xc2f3b2093cdac2c7ecae54f0b17656dc]),
    ("freqmine", [0xf2397b830eaf9af8b1964946fcb3ed80, 0xa5a0b3f51f0a65fb4538e01bdb71cd03, 0x96f11476ebdd998d75f056a7b7d5b2e0]),
    ("hotspot", [0xb6692c2ef61e5e3d19c76a1a7680f3b6, 0x1d0fed7c4b105a0d419516a62fe59b76, 0x7bde470abac56ff0dd5398227a320eb8]),
    ("perlbench", [0xece146adda335cc0941a04c585acc4fd, 0x4f6f894becb9af99d0ce31e9e64788fc, 0x96f11476ebdd998d75f056a7b7d5b2e0]),
    ("libquantum", [0x5623d652f21e184089a08908f030eb04, 0xa922592c754da06f74b442a47f9dc433, 0x7bde470abac56ff0dd5398227a320eb8]),
    ("soplex", [0x289aa8e5a66159471a42d23047dfbceb, 0xf0421816ba9a482725e34407d21ac8ae, 0xe4f04103924664dd7b62524560f1c404]),
    ("omnetpp", [0x140453d13a68cb12537efaaf72f50edd, 0xeaf227b7ff786fd51ca9546557fe821d, 0xc2f3b2093cdac2c7ecae54f0b17656dc]),
    ("mg", [0xbb954e88e30a4dfd3f70d5d37d0b643f, 0x0d1534305270e03038d065884d3ef3d1, 0x2057c9a8dec9ab46753c6c5af8e15ff2]),
    ("ft", [0xb208fc3b59e52f52d94a9cf353b352f7, 0x5d237cacaf696fce865de4fe99b9b824, 0x7bde470abac56ff0dd5398227a320eb8]),
    ("x264", [0xf2397b830eaf9af8b1964946fcb3ed80, 0x6718d1f5a3f2b55adb88491540eb2271, 0x96f11476ebdd998d75f056a7b7d5b2e0]),
    ("dedup", [0xa8b3dff06cd81508a4347fccb411f5e8, 0x4960a0886e0ab221720eda1ebd85db99, 0xc2f3b2093cdac2c7ecae54f0b17656dc]),
    ("bodytrack", [0xf55d7a1430af7966e3ea5e2d6f61b8e4, 0x27b64ee58d0fed32b7f7b2b7969bb4c9, 0xc2f3b2093cdac2c7ecae54f0b17656dc]),
    ("nw", [0x8aa29b3c51d5f9e7b6d536eb4b61ec91, 0xb2ae8dc1e965911ba1a0aa3358c70048, 0xba323385d2684c91c04eadb8d3f63f94]),
    ("particlefilter", [0xf55d7a1430af7966e3ea5e2d6f61b8e4, 0x687880bbb4b73f24b1562773a041a85f, 0xc2f3b2093cdac2c7ecae54f0b17656dc]),
];

/// The three digests of `workload`, each over the probabilistic then the
/// oracle binary.
fn digests(workload: &Workload) -> [u128; 3] {
    let (profile, _) =
        profile_program(&workload.program, &CoreConfig::paper()).expect("profiling succeeds");
    let mut outputs: [Vec<Vec<u8>>; 3] = Default::default();
    for options in [CompileOptions::default(), CompileOptions::oracle()] {
        let (binary, report) =
            compile(&workload.program, &profile, &options).expect("compile succeeds");
        let verdicts: Vec<String> = Analysis::of_program(&binary)
            .slice_reports(&binary)
            .iter()
            .map(|r| format!("{:?}", r.verdict))
            .collect();
        outputs[0].push(report.to_json().compact().into_bytes());
        outputs[1].push(encode_program(&binary));
        outputs[2].push(verify(&binary).to_json().compact().into_bytes());
        outputs[2].push(verdicts.join("\n").into_bytes());
    }
    outputs.map(|chunks| hash128(&chunks.iter().map(Vec::as_slice).collect::<Vec<_>>()))
}

/// Checks `workloads` against `pins`, listing every mismatch as the table
/// line that would pin the current output.
fn check(workloads: &[Workload], pins: &[Pin]) {
    let mismatches: Vec<String> = workloads
        .iter()
        .filter_map(|w| {
            let got = digests(w);
            let pinned = pins.iter().find(|(name, _)| *name == w.name);
            (pinned.map(|(_, d)| *d) != Some(got)).then(|| {
                format!(
                    "(\"{}\", [{:#034x}, {:#034x}, {:#034x}]),",
                    w.name, got[0], got[1], got[2]
                )
            })
        })
        .collect();
    assert!(
        mismatches.is_empty(),
        "static outputs differ from their pinned digests:\n{}",
        mismatches.join("\n")
    );
}

/// The paper-scale workloads whose names satisfy `keep`; no other kernel
/// is built.
fn paper_workloads(keep: impl Fn(&str) -> bool) -> Vec<Workload> {
    KERNELS
        .iter()
        .filter(|k| keep(k.name))
        .map(|k| k.build(Scale::Paper))
        .collect()
}

#[test]
fn every_workload_keeps_its_static_outputs_at_test_scale() {
    let workloads = all_workloads(Scale::Test);
    assert_eq!(workloads.len(), TEST_SCALE.len());
    check(&workloads, &TEST_SCALE);
}

#[test]
#[ignore = "paper scale: slow in a debug build; run with --release"]
fn focal_kernels_keep_their_static_outputs_at_paper_scale() {
    let focal = paper_workloads(|n| FOCAL_NAMES.contains(&n));
    assert_eq!(focal.len(), 11);
    check(&focal, &PAPER_SCALE);
}

#[test]
#[ignore = "paper scale: slow in a debug build; run with --release"]
fn serve_sweep_kernels_keep_their_static_outputs_at_paper_scale() {
    let sweep = paper_workloads(|n| PAPER_SWEEP.contains(&n));
    assert_eq!(sweep.len(), 17);
    check(&sweep, &PAPER_SCALE);
}
