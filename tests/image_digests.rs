//! Pinned bytes of every built-in program image.
//!
//! The `.bin` format is the compile cache's content: `artifact_key` and
//! `listing_key` hash a program's encoded image, and a `--cache-dir` store
//! holds encoded images on disk. A change to how a program is held in
//! memory must therefore leave every encoded image byte-identical. This
//! test pins the `hash128` digest of `encode_program` for all 33 built-in
//! workloads at both scales, and checks that decoding each image and
//! encoding it again gives back the same bytes. The cache's byte budget
//! counts images by `encoded_len` without building them, so that length is
//! checked against the image here too.

use amnesiac::compiler::{compile, CompileOptions, SliceSetPolicy};
use amnesiac::isa::{decode_program, encode_program, encoded_len};
use amnesiac::mem::hash128;
use amnesiac::profile::profile_program;
use amnesiac::sim::CoreConfig;
use amnesiac::workloads::{all_workloads, focal_workloads, Scale};

/// `(name, test-scale digest, paper-scale digest)`, in `all_workloads`
/// order.
#[rustfmt::skip]
const DIGESTS: [(&str, u128, u128); 33] = [
    ("mcf", 0xbb6a4baf8e0f25854982721ae5ac36d2, 0x9ccf4444da7d4165a6275f426416317e),
    ("sx", 0x23801a4988b77d67cbbc4487266e8bd1, 0x575b3bd109bee388f613b34ad699582f),
    ("cg", 0x6386c807307e132972c7e1b60f6c3789, 0x06dfaa8ae29399ead53e58a92629c690),
    ("is", 0x5494b1e09098a7cc81094776a40bf26b, 0x755b5f1b6096a98119bec234b92c99bf),
    ("ca", 0xadee2fff16b07b037d3b8338a04d8c50, 0xef296c9da0922a7e83bbae342328e566),
    ("fs", 0x69ca240b43ed70a82acbaceb1422cecb, 0xe8164508195f61b03f9c67271d0c8ddd),
    ("fe", 0x2bc270a9c36152b0a1613ff6866e3f8d, 0x614d7a70dcd3de1dffedfbff3d087e81),
    ("rt", 0x9ffa65b5182c68a20a69e159301f9731, 0x97dfc69e9eeffb9bd80dcdf1733f2f28),
    ("bp", 0x3ceef495d58743b720c8c8ea7b9f453e, 0xf213b291f10f54fc5e9c31a8431fa464),
    ("bfs", 0x24a1d7f1132523d54ebe4f899fd8c9d6, 0xff20fb019d6fdccedaeaed3bce2882ec),
    ("sr", 0x53196e8c85787e69c83d1e579d9187ce, 0x8bb716efb04ae04ce5909fb781c1b532),
    ("blackscholes", 0xc7834de45044dae045ecd64d3a4b4a77, 0x694f513f200f0ce89ce6a49438c65526),
    ("swaptions", 0x1425e7c07cb6c8e8be1fcb9c5bbc0c6b, 0x0fc84fb65d2a454a3299100085ae5e17),
    ("freqmine", 0x66a712893744c92b4a62fe842c6a623e, 0xb75f1e1634d57768023078a38e25ba17),
    ("kmeans", 0x59ccc618132efadf541b6add0a52fa0d, 0x575dc91216851ffe2aeddd3a9d86ae1f),
    ("hotspot", 0xfa54234a85de66705d72c2575ff52af0, 0x4b88f2d62930e4097f93f959a0974804),
    ("perlbench", 0xa44609dc95e8761e6433739a2e97e20d, 0x93db421b5bba23e6137afbb046ff3fa6),
    ("gobmk", 0x4601a16ca3421af10556569635ee413c, 0xbbb9af4755bc5ee03e07030c9e9899b9),
    ("calculix", 0x45a7deace4aa81855ad104e0db287316, 0xf9e0c119f49499f03ea06b6bd17f2030),
    ("GemsFDTD", 0xf2772c8d68ac6b3b2237c255cb596204, 0xaf723e79b749a4c752cfd0d9bb6e0770),
    ("libquantum", 0xfd6aa520de9b7cbe28562dda666e9f7f, 0x9f9b503da53de04ddb6d04b025dee829),
    ("soplex", 0x00e882f9502af591abc451a97fa6d07b, 0xbaef5f892fffb196dea8b07265d60be1),
    ("lbm", 0x46e236cf5e8e0f94269c4a8a8eb7da65, 0xf5d6cbb5f7302ddbdb7428338dca4d52),
    ("omnetpp", 0x613a96fa2cea4bd649e80de2b166579e, 0x58429810904963c24ec01ab7df5f07a3),
    ("mg", 0xdd5fb3c3b90d71a52120e1010d5ef3a1, 0xc15e84fda19b123fe4e81de84aa000a0),
    ("ft", 0xdc79827ea9123216fbe218eb0bc64ceb, 0x7afbea6424b3cda2acfd8a9dfb7716f3),
    ("x264", 0xda7b7ac6f69965f852810b0107ee1a79, 0x19c67cd10a2b9519a23db7ee56e25663),
    ("dedup", 0x6018ac5721f7055cace40a35d4b8731d, 0xa4249bd6bbc3a792f34c032f980948a2),
    ("fluidanimate", 0x2ee1791f3f41046769d60164f3a1e430, 0x413ff98af820f186cde9383e79379ea8),
    ("streamcluster", 0x46266568f857b4b6b97359618dc1f885, 0xb8874c7a49d6e19c3bd4e9384e039141),
    ("bodytrack", 0xc6fae88009da57e717383d91838c2d12, 0x3649339847ac6e35c90c6b2607c96339),
    ("nw", 0xa062818c5e30fb1f89d41ed8fb89367d, 0x3752ee7749916bea0a67545f9767160b),
    ("particlefilter", 0xabdc37c73a94eb2fb541f0b958b46f13, 0x7797173230c995342d54057f2c0cf720),
];

#[test]
fn every_built_in_image_keeps_its_bytes() {
    let test = all_workloads(Scale::Test);
    let paper = all_workloads(Scale::Paper);
    let mut mismatches = Vec::new();
    for (t, p) in test.iter().zip(&paper) {
        let mut digests = [0u128; 2];
        for (slot, w) in digests.iter_mut().zip([t, p]) {
            let bytes = encode_program(&w.program);
            let decoded = decode_program(&bytes).expect("built-in images decode");
            assert_eq!(decoded, w.program, "{}: decode differs", w.name);
            assert!(
                encode_program(&decoded) == bytes,
                "{}: encode(decode(bytes)) != bytes",
                w.name
            );
            *slot = hash128(&[&bytes]);
        }
        let pinned = DIGESTS.iter().find(|(name, ..)| *name == t.name);
        if pinned.map(|&(_, dt, dp)| [dt, dp]) != Some(digests) {
            mismatches.push(format!(
                "(\"{}\", {:#034x}, {:#034x}),",
                t.name, digests[0], digests[1]
            ));
        }
    }
    assert_eq!(test.len(), 33);
    assert!(
        mismatches.is_empty(),
        "images differ from their pinned digests:\n{}",
        mismatches.join("\n")
    );
}

#[test]
fn encoded_len_is_the_image_length() {
    for scale in [Scale::Test, Scale::Paper] {
        for w in all_workloads(scale) {
            let image = encode_program(&w.program);
            assert_eq!(encoded_len(&w.program), image.len(), "{} {scale:?}", w.name);
        }
    }
    // annotated binaries add slice bodies, operand plans and leaves
    let mut slices = 0;
    for w in focal_workloads(Scale::Test) {
        let (profile, _) = profile_program(&w.program, &CoreConfig::paper()).unwrap();
        for slice_set in [SliceSetPolicy::Probabilistic, SliceSetPolicy::Oracle] {
            let options = CompileOptions {
                slice_set,
                ..CompileOptions::default()
            };
            let (binary, _) = compile(&w.program, &profile, &options).unwrap();
            slices += binary.slices.len();
            let image = encode_program(&binary);
            assert_eq!(
                encoded_len(&binary),
                image.len(),
                "{} {slice_set:?}",
                w.name
            );
        }
    }
    assert!(slices > 0, "some annotated binary carries slices");
}
