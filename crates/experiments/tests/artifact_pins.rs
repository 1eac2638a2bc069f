//! Pinned outputs of the paper artifacts.
//!
//! For every artifact the experiment drivers print, two digests: its text
//! and the compact JSON of its twin (0 where it has none). That covers
//! Tables 1–6, Figs. 3–8 with the §5.6 table, the store-elision table, the
//! raw `suite.json` dump, the 22 non-focal kernels (`controls.json`) and the
//! eight ablation tables. Every twin is a pure function of the code and the
//! scale, so these digests hold the text and its twin fixed from one change
//! to the next. The focal twins are the ones [`export::artifacts`] lists. Everything runs at test scale; an ignored test covers the
//! focal-suite artifacts and Table 6 at paper scale (run it in release).

use amnesiac_experiments::{
    ablations, export, fig3, fig6, fig7, fig8, table1, table2, table3, table4, table5, table6,
    EvalSuite,
};
use amnesiac_mem::hash128;
use amnesiac_telemetry::Json;
use amnesiac_workloads::Scale;

/// `(artifact, [text, twin])` digests.
type Pin = (&'static str, [u128; 2]);

/// One artifact's text and twin, either of which may be absent.
type Output = (&'static str, Option<String>, Option<Json>);

/// Test scale, in [`outputs`] order.
#[rustfmt::skip]
const TEST_SCALE: [Pin; 23] = [
    ("table1", [0xc93618f4a5305edbb17ae1c22477201a, 0xb0b3d652e4c950c14fc397a6264ff998]),
    ("table2", [0xfbddc2dcdbd3db59ee4caf47a7d38ed1, 0x60145bd67ff8ae7834129f0241744532]),
    ("table3", [0x48e36ac8cda98a7b8bf96a5614d5d7af, 0x00000000000000000000000000000000]),
    ("fig3", [0x5ae7d7f57c7294d601674d36496c5b1a, 0xb16ed75a38c334838d11c18ac0efc467]),
    ("fig4", [0x45d24d1481c14d4354c0745b6bd57929, 0x2922cdcfbe473754d68cdae7424e1a9c]),
    ("fig5", [0xc93096cee5e1fe93df909de98db3eb77, 0x0027f13bc091651cc98482a0bf1321bc]),
    ("table4", [0xecbc7130336b3fa20ac4bd7962406240, 0xd729e27dc92c055fa7db69cecc1ccb20]),
    ("table5", [0x5331384e6b5eb8971309819abd2aebbd, 0x64501d679bc92eb27ce47b509c63f3b2]),
    ("fig6", [0x79b412c7357f73cbeb27cfb9c8149f7c, 0x0254e619c3679e03bab41a0829d8fcc3]),
    ("fig7", [0x677280df17780c6bbf78a33680d6c255, 0xd3ca2249e71a00498a7fe42f81df4cef]),
    ("fig8", [0xf4a72f4517a95f4fad030b29cf0906a2, 0x659089bfa859b2cccbbf02e7e36e7811]),
    ("store_elision", [0x3afed0738050be4f8605247100bef9e2, 0x00000000000000000000000000000000]),
    ("suite", [0x00000000000000000000000000000000, 0x396c3b0ec153f1eb82c42db609a6884d]),
    ("table6", [0x652e205d2ec391d9fc180b49731b1201, 0xe5c1eab03ae9674b3fddb775638fdca6]),
    ("controls", [0x71c50fec46b2cb8ebf91b67630fe2ac7, 0x21b5e78016d96ddc69bc73114b11d48b]),
    ("predictor_policy", [0xd78130bbd0a0dfceb2619a733155c7d5, 0x00000000000000000000000000000000]),
    ("store_elision_applied", [0xdc1e06629841e8738489706f3b5e2956, 0x00000000000000000000000000000000]),
    ("offload", [0x34305ce087212c10c46a4b64b5eadf76, 0x00000000000000000000000000000000]),
    ("prefetch_interaction", [0x145e1614bd67eaa737ce97c5a48b82c4, 0x00000000000000000000000000000000]),
    ("structure_sizing", [0x25699c1ec4c810503cf0f4bc66ca5890, 0x00000000000000000000000000000000]),
    ("hist_sizing", [0x9c09bc97454eed6ab10a65a346fb840c, 0x00000000000000000000000000000000]),
    ("probe_cost", [0xa12d70fde709a4c39aea34117f8d44e8, 0x00000000000000000000000000000000]),
    ("technology_trend", [0x5823053f3afe19cb4dd9504a5d11c46b, 0x00000000000000000000000000000000]),
];

/// Paper scale: the focal-suite artifacts and Table 6.
#[rustfmt::skip]
const PAPER_SCALE: [Pin; 11] = [
    ("fig3", [0x903728aa42c96357d697ad3ef974b928, 0x060bb00b83ce102a04736fa6849635ec]),
    ("fig4", [0x2bd9c4fb12637b0dc7ba648499334b3d, 0x1064d2671bbe5b4fd8bf19a73a4484fe]),
    ("fig5", [0x1861dd99591d6c2a761519ef3be94388, 0x3a8bb4888fdf19ae1b1a49045cd57824]),
    ("table4", [0xe6169ff380f47269523c26f4ff203e02, 0xd360766ee468a99f9d44fea2ef6c25a6]),
    ("table5", [0x173933f5719c1ef9effee410441ba7f6, 0x6fab0d46fc865d9418c2963acd968251]),
    ("fig6", [0x433899d93f467d6692534adc2fa3f153, 0xafd25c2be0bd16d112497f8e58defb5a]),
    ("fig7", [0x10fcb449e131315f0d50633f1a360f7e, 0x453b30734d825c258275224bc800e132]),
    ("fig8", [0x7b26ad7975f1365ed97cd8ec7dc1f568, 0x630dd0cbc58fb3c9f5cd4a8cdf08955d]),
    ("store_elision", [0x00c248c14398955ab2108919405da8ea, 0x00000000000000000000000000000000]),
    ("suite", [0x00000000000000000000000000000000, 0x1b9e11d01de5c59fb0530f05afdf868f]),
    ("table6", [0x4048dc6e6cf89c478538ca06ad00b449, 0xea6c4dd7af5aedd62435a00302d63a85]),
];

/// The artifacts computed from the focal suite at `scale`, then Table 6,
/// each with the twin `all` writes for it.
fn focal_outputs(scale: Scale) -> Vec<Output> {
    let suite = EvalSuite::compute(scale);
    let table6_rows = table6::rows(&suite);
    let mut twins = export::artifacts(&suite);
    twins.push(("table6.json", table6::json(&table6_rows)));
    let twin = |name: &str| {
        let file = format!("{name}.json");
        twins
            .iter()
            .find(|(f, _)| *f == file)
            .map(|(_, j)| j.clone())
    };
    [
        ("fig3", Some(fig3::render(&suite, fig3::FIG3))),
        ("fig4", Some(fig3::render(&suite, fig3::FIG4))),
        ("fig5", Some(fig3::render(&suite, fig3::FIG5))),
        ("table4", Some(table4::render(&suite))),
        ("table5", Some(table5::render(&suite))),
        ("fig6", Some(fig6::render(&suite))),
        ("fig7", Some(fig7::render(&suite))),
        ("fig8", Some(fig8::render(&suite))),
        ("store_elision", Some(ablations::store_elision(&suite))),
        ("suite", None),
        ("table6", Some(table6::render(&table6_rows))),
    ]
    .into_iter()
    .map(|(name, text)| (name, text, twin(name)))
    .collect()
}

/// Every artifact at test scale.
fn outputs() -> Vec<Output> {
    let mut outputs: Vec<Output> = vec![
        ("table1", Some(table1::render()), Some(table1::json())),
        ("table2", Some(table2::render()), Some(table2::json())),
        ("table3", Some(table3::render()), None),
    ];
    outputs.extend(focal_outputs(Scale::Test));
    let rest = EvalSuite::compute_rest(Scale::Test);
    outputs.push((
        "controls",
        Some(fig3::render_controls(&rest)),
        Some(fig3::controls_json(&rest)),
    ));
    let suite = EvalSuite::compute(Scale::Test);
    for (name, text) in [
        ("predictor_policy", ablations::predictor_policy(&suite)),
        (
            "store_elision_applied",
            ablations::store_elision_applied(&suite),
        ),
        ("offload", ablations::offload(&suite)),
        (
            "prefetch_interaction",
            ablations::prefetch_interaction(&suite),
        ),
        ("structure_sizing", ablations::structure_sizing(&suite)),
        ("hist_sizing", ablations::hist_sizing(&suite)),
        ("probe_cost", ablations::probe_cost(&suite)),
        ("technology_trend", ablations::technology_trend(&suite)),
    ] {
        outputs.push((name, Some(text), None));
    }
    outputs
}

/// The two digests of one output; 0 stands for an absent half.
fn digests((_, text, twin): &Output) -> [u128; 2] {
    [
        text.as_ref().map_or(0, |t| hash128(&[t.as_bytes()])),
        twin.as_ref()
            .map_or(0, |j| hash128(&[j.compact().as_bytes()])),
    ]
}

/// Checks `outputs` against `pins` in order, listing every mismatch as the
/// table line that would pin the current output.
fn check(outputs: &[Output], pins: &[Pin]) {
    let names: Vec<&str> = outputs.iter().map(|o| o.0).collect();
    let pinned: Vec<&str> = pins.iter().map(|p| p.0).collect();
    assert_eq!(names, pinned, "the artifact list changed");
    let mismatches: Vec<String> = outputs
        .iter()
        .zip(pins)
        .filter_map(|(output, (name, pinned))| {
            let got = digests(output);
            (got != *pinned).then(|| format!("(\"{name}\", [{:#034x}, {:#034x}]),", got[0], got[1]))
        })
        .collect();
    assert!(
        mismatches.is_empty(),
        "paper artifacts differ from their pinned digests:\n{}",
        mismatches.join("\n")
    );
}

#[test]
fn every_artifact_keeps_its_text_and_twin_at_test_scale() {
    check(&outputs(), &TEST_SCALE);
}

#[test]
#[ignore = "paper scale: slow in a debug build; run with --release"]
fn focal_artifacts_keep_their_text_and_twin_at_paper_scale() {
    check(&focal_outputs(Scale::Paper), &PAPER_SCALE);
}
