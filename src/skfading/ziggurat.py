"""numpy's ziggurat standard normal, vectorised over raw Philox words.

Generator.standard_normal() draws by the 256-layer ziggurat of Marsaglia and
Tsang (J. Stat. Softw. 2000) in numpy's layout: one raw 64-bit word r gives
the layer idx = r & 0xff, the sign bit 8 and the 52-bit magnitude rabs =
r >> 9, and the draw is x = +-rabs * wi[idx], accepted iff rabs < ki[idx].
Otherwise (about 1.5% of words: layer 0's tail, a wedge outside the inner
rectangle, and every word of layer 1, whose ki is 0) numpy draws further
words, which this module does not model; the caller redraws those from the
stream's own generator.

The table is numpy's wi_double, as exact hex floats. ki_double is derived
from it: ki[i] = round(wi[i - 1] / wi[i] * 2**52), with wi[255] before
layer 0, and ki[1] = 0. That rule reproduces all 256 entries, and the
selfcheck command compares the result with this install's generator.
"""

from __future__ import annotations

import numpy as np

__all__ = ["ziggurat_normals"]

# numpy's wi_double: layer widths on the scale of the 52-bit magnitude
_WI = np.array([float.fromhex(word) for word in """
    0x1.f493b7815d979p-51 0x1.b8d0be3fdf6c6p-55 0x1.250af3c2c5bb4p-54 0x1.57cb938443b61p-54
    0x1.801fce82fa70cp-54 0x1.a230c2e4cd0bcp-54 0x1.c004d2f3861f7p-54 0x1.dac2f5a747274p-54
    0x1.f32482d4cd5c3p-54 0x1.04d32278ebbadp-53 0x1.0f5053b025d43p-53 0x1.192a697413677p-53
    0x1.227a28f7a1af5p-53 0x1.2b52e3863d880p-53 0x1.33c3fc05791f5p-53 0x1.3bd9ec1a2b12fp-53
    0x1.439ef8dff9b55p-53 0x1.4b1bb363dfea7p-53 0x1.52575621ad374p-53 0x1.59580a707ce96p-53
    0x1.60231cfd97eeap-53 0x1.66bd261a37c3dp-53 0x1.6d2a292000570p-53 0x1.736dad346f8a6p-53
    0x1.798ad10b32a77p-53 0x1.7f845ad46f543p-53 0x1.855cc53430a77p-53 0x1.8b1649e7b769ap-53
    0x1.90b2ea94ecf98p-53 0x1.96347822c1eeap-53 0x1.9b9c98e38c546p-53 0x1.a0eccdca4a72cp-53
    0x1.a62676d77cd59p-53 0x1.ab4ad6e101630p-53 0x1.b05b16d136c9cp-53 0x1.b558487427a29p-53
    0x1.ba4368e529f3ap-53 0x1.bf1d62abf8232p-53 0x1.c3e70f9594ef3p-53 0x1.c8a13a5323b61p-53
    0x1.cd4c9fe72268bp-53 0x1.d1e9f0e80b748p-53 0x1.d679d29e41f10p-53 0x1.dafce0023b8c3p-53
    0x1.df73aa9f17653p-53 0x1.e3debb5d2edfep-53 0x1.e83e9337a6f00p-53 0x1.ec93abdf982cep-53
    0x1.f0de784f06226p-53 0x1.f51f654d8f688p-53 0x1.f956d9e87d7aep-53 0x1.fd8537dfa2eacp-53
    0x1.00d56e04234ecp-52 0x1.02e40f5398f9ap-52 0x1.04eea9e16a5fcp-52 0x1.06f565b72a010p-52
    0x1.08f869071f40bp-52 0x1.0af7d84bc6113p-52 0x1.0cf3d664bcc7fp-52 0x1.0eec84b16086bp-52
    0x1.10e20329515eep-52 0x1.12d4707310fbep-52 0x1.14c3e9f8e9141p-52 0x1.16b08bfc4201ep-52
    0x1.189a71a78da34p-52 0x1.1a81b51ee6d88p-52 0x1.1c666f8f82acbp-52 0x1.1e48b93e0d42ep-52
    0x1.2028a9940a09fp-52 0x1.2206572c4c6e9p-52 0x1.23e1d7de9c31fp-52 0x1.25bb40ca96bfbp-52
    0x1.2792a661dd37fp-52 0x1.29681c719d71bp-52 0x1.2b3bb62b82edap-52 0x1.2d0d862e1b853p-52
    0x1.2edd9e8cba98ep-52 0x1.30ac10d6e48d7p-52 0x1.3278ee1f4b930p-52 0x1.3444470265ea1p-52
    0x1.360e2baca52d5p-52 0x1.37d6abe05586ap-52 0x1.399dd6fb2b264p-52 0x1.3b63bbfb83d03p-52
    0x1.3d28698561de0p-52 0x1.3eebede725a83p-52 0x1.40ae571e09e74p-52 0x1.426fb2da6745dp-52
    0x1.44300e83c30a4p-52 0x1.45ef773cac75dp-52 0x1.47adf9e66c336p-52 0x1.496ba32488f2fp-52
    0x1.4b287f602415dp-52 0x1.4ce49acb311dcp-52 0x1.4ea001638a605p-52 0x1.505abef5e5562p-52
    0x1.5214df20a8b5ap-52 0x1.53ce6d56a664fp-52 0x1.558774e1bb2c8p-52 0x1.574000e555f78p-52
    0x1.58f81c60e8514p-52 0x1.5aafd23241b59p-52 0x1.5c672d17d733dp-52 0x1.5e1e37b2f8cd3p-52
    0x1.5fd4fc89f5e38p-52 0x1.618b860a31fc3p-52 0x1.6341de8a2b0a2p-52 0x1.64f8104b7260bp-52
    0x1.66ae257c99672p-52 0x1.6864283b13137p-52 0x1.6a1a22950b2b1p-52 0x1.6bd01e8b343bbp-52
    0x1.6d8626128d352p-52 0x1.6f3c43161f854p-52 0x1.70f27f78b68ebp-52 0x1.72a8e516914c6p-52
    0x1.745f7dc70eedcp-52 0x1.7616535e5731fp-52 0x1.77cd6faeff449p-52 0x1.7984dc8babd93p-52
    0x1.7b3ca3c8b1409p-52 0x1.7cf4cf3db22fbp-52 0x1.7ead68c73dee7p-52 0x1.80667a486ea1fp-52
    0x1.82200dac88676p-52 0x1.83da2ce899f15p-52 0x1.8594e1fd1f5bdp-52 0x1.875036f7a7ec5p-52
    0x1.890c35f47f72dp-52 0x1.8ac8e9205c043p-52 0x1.8c865aba10c9cp-52 0x1.8e44951446a27p-52
    0x1.9003a2973b58fp-52 0x1.91c38dc288347p-52 0x1.9384612ef0afcp-52 0x1.954627903a28ap-52
    0x1.9708ebb70d5eep-52 0x1.98ccb892e2a31p-52 0x1.9a919933f99bfp-52 0x1.9c5798cd5d92cp-52
    0x1.9e1ec2b6f7411p-52 0x1.9fe7226fad24ap-52 0x1.a1b0c39f93692p-52 0x1.a37bb21a2c85bp-52
    0x1.a547f9e0bbb88p-52 0x1.a715a724aa9a4p-52 0x1.a8e4c64a0313dp-52 0x1.aab563e9ff108p-52
    0x1.ac878cd5af5cep-52 0x1.ae5b4e18bb336p-52 0x1.b030b4fc3a11ap-52 0x1.b207cf09a985bp-52
    0x1.b3e0aa0e00c00p-52 0x1.b5bb541ce3d03p-52 0x1.b797db93f8927p-52 0x1.b9764f1e5f73cp-52
    0x1.bb56bdb85256ep-52 0x1.bd3936b2ec0a2p-52 0x1.bf1dc9b81ae83p-52 0x1.c10486cec16a0p-52
    0x1.c2ed7e5f07a2dp-52 0x1.c4d8c136e0d1cp-52 0x1.c6c6608ec8705p-52 0x1.c8b66e0eba617p-52
    0x1.caa8fbd36a2abp-52 0x1.cc9e1c73bd690p-52 0x1.ce95e3068e037p-52 0x1.d0906328b8f6ep-52
    0x1.d28db1037ef20p-52 0x1.d48de1533c647p-52 0x1.d691096e7f123p-52 0x1.d8973f4d7fba5p-52
    0x1.daa0999206e70p-52 0x1.dcad2f8fc490ep-52 0x1.debd195522e37p-52 0x1.e0d06fb49d21cp-52
    0x1.e2e74c4ea46f6p-52 0x1.e501c99c1d188p-52 0x1.e72002f97fe25p-52 0x1.e94214b2abf0ap-52
    0x1.eb681c0f76f08p-52 0x1.ed9237610a73ap-52 0x1.efc086101eca9p-52 0x1.f1f328ac25321p-52
    0x1.f42a40fb74d6dp-52 0x1.f665f20c90168p-52 0x1.f8a6604899782p-52 0x1.faebb187122bfp-52
    0x1.fd360d22fe785p-52 0x1.ff859c118f60bp-52 0x1.00ed447d3a075p-51 0x1.021a8028fc947p-51
    0x1.034a983a902abp-51 0x1.047da4e3ef5c7p-51 0x1.05b3bf6adb37ep-51 0x1.06ed023a72668p-51
    0x1.082988f632e17p-51 0x1.0969708e8a254p-51 0x1.0aacd7571c0c4p-51 0x1.0bf3dd1eed448p-51
    0x1.0d3ea34aa3d30p-51 0x1.0e8d4cf116593p-51 0x1.0fdffefa69fb6p-51 0x1.1136e04207041p-51
    0x1.129219bbb5d35p-51 0x1.13f1d69c4096dp-51 0x1.1556448602e3bp-51 0x1.16bf93b9deef3p-51
    0x1.182df74d21261p-51 0x1.19a1a564eebacp-51 0x1.1b1ad777f2f8ep-51 0x1.1c99ca971a694p-51
    0x1.1e1ebfbe4ae39p-51 0x1.1fa9fc2e2d901p-51 0x1.213bc9d04cc81p-51 0x1.22d477a6fd3eep-51
    0x1.24745a4ac9c24p-51 0x1.261bcc77658e0p-51 0x1.27cb2faa8592ep-51 0x1.2982ecd770e78p-51
    0x1.2b437532a0a52p-51 0x1.2d0d43196db97p-51 0x1.2ee0db1a978f5p-51 0x1.30becd256aeeep-51
    0x1.32a7b5e68a4a3p-51 0x1.349c405ae12a3p-51 0x1.369d27a33a840p-51 0x1.38ab39256410ap-51
    0x1.3ac7570ae88fap-51 0x1.3cf27b31704a6p-51 0x1.3f2dbaa60f475p-51 0x1.417a49cb9e5dap-51
    0x1.43d9815545e94p-51 0x1.464ce44a73a15p-51 0x1.48d62759c43bcp-51 0x1.4b7739d6b5a27p-51
    0x1.4e3250dcd8902p-51 0x1.5109f53e9ac41p-51 0x1.54011523a7e42p-51 0x1.571b1a94ae41bp-51
    0x1.5a5c08b718dd9p-51 0x1.5dc8a243ad0fep-51 0x1.61669cf861e4cp-51 0x1.653ce7b006aeap-51
    0x1.69540be9fe5c3p-51 0x1.6db6b8d09e232p-51 0x1.72728f05f7a34p-51 0x1.7799556090673p-51
    0x1.7d42df4d6ce8cp-51 0x1.839030529f234p-51 0x1.8ab0fbfaa7c14p-51 0x1.92ee0946f4496p-51
    0x1.9cbee014057abp-51 0x1.a8fdc7894775ap-51 0x1.b981f3878fdb1p-51 0x1.d3bb48209ad33p-51
""".split()])
_KI = np.rint(np.roll(_WI, 1) / _WI * 2.0 ** 52).astype(np.uint64)
_KI[1] = 0
_MAGNITUDE = (1 << 52) - 1


def ziggurat_normals(words):
    """Generator.standard_normal() of each raw word, where that one word
    decides it: returns (x, accepted), two arrays of words' shape; x is
    numpy's draw wherever accepted holds and meaningless elsewhere."""
    idx = (words & 0xFF).astype(np.intp)
    rabs = (words >> 9) & _MAGNITUDE
    x = rabs * _WI[idx]
    np.negative(x, out=x, where=(words & 0x100).astype(bool))
    return x, rabs < _KI[idx]
