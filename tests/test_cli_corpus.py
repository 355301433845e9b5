"""Golden command corpus: exit code and output digests pinned per argv.

Each argv runs in process through `cli.run`. The pin is the exit code, the
sha256 of stdout, and on exit 1 the sha256 of stderr (the one-line error).
Stderr of other exits carries timings, so it is not pinned. A refactor that
changes any byte of these outputs fails here.
"""

import hashlib

import pytest

from conekit.cli import run

# (argv, exit code, sha256 of stdout, sha256 of stderr on exit 1 else None)
CORPUS = [
    # README examples
    ('roots betas --type A2 --word 1,2,1', 0,
     '8645502c7dba95577af5661902ec263cd4a6ed2c6574a10b9b9d1d3506544754',
     None),
    ('roots words --type B2', 0,
     'afbadc0af89190b91b200a30585c2f3de0b1db59c5a99281e1a62bd3d2573130',
     None),
    ('cone lusztig --type A2 --word 1,2,1', 0,
     '0451c0074526b0e7c780e3a913c129758b739aa94e5fd6c7a5dcb34c34a54412',
     None),
    ('cone negative --type G2 --word 1,2,1,2,1,2', 0,
     '6b4f21808c3884a3f27b382f52a5a60ebc1a22618bd4047d629ec64fef13c876',
     None),
    ('cone degree --quiver 1>2,2>3 --word 3,2,3,1,2,3', 0,
     'c05c0faf303319624923cd70196ac8d2d0daa44cbb43f1261d9c0c205351d734',
     None),
    ('cone check --quiver 1>2,2>3 --word 3,2,3,1,2,3', 0,
     'd31b5489797a097d6d21684d9b880a3c9040142f5494023897d1b95a8d21501f',
     None),
    ('quiver ar --quiver 1>2 --word 2,1,2', 0,
     '0d172fb29ab0254b39a34900d6053df9e1418656394d99a3a884ccf6e07dd783',
     None),
    ('quiver middle --quiver 1>2,2>3 --word 3,2,3,1,2,3 --mode filter', 0,
     '81b3c48ea2a4651b86597aaa29a80f4c2a16a1bdea9521ca8a84fec092e546e0',
     None),
    ('quiver ktheory --quiver 1>2,2>3 --word 3,2,3,1,2,3', 0,
     '980d297beae2af43bde61371ca92a6d4bd57cf2a86284f93ace23b9a00353a27',
     None),
    ('quiver superfluous --quiver 1>2,2>3 --word 3,2,3,1,2,3', 0,
     '0a528a66c3fbc90f791508c4685cd6924053a1b7296560af88db104d5f5c539d',
     None),
    ('hall poly --n 2 --v 1-1 --w 2-2 --x 1-2', 0,
     'e16bc32072e918e727dd258cc19a3ac2c5039fb79eb9b47cf811bdcef23de24f',
     None),
    ('hall comm --n 2 --v 1-1 --u 2-2', 0,
     'dc1655e66f6b17d6fe837caf5e0e5354babd64e1d637038dabda5674a78e6829',
     None),
    ('hall verify-term --quiver 1>2,2>3 --word 3,2,3,1,2,3 --k 2', 0,
     '96006519dc5d0464c2a6fcff9a5f01897f9ea75bd64a75c524fa7c1e6638a57e',
     None),
    ('trop relations --n 4', 0,
     '68a760eb758c9fe8b1101cb5f27f7b0f8266d19bafa83256b85fcf5b86c06177',
     None),
    ('trop check --n 3 --d 0,0,1', 0,
     '7f3b5f500f528bddef5ac0c0b11e9391f1638f04e9e8cb466212bf40cc4418cf',
     None),
    ('trop initial --n 3 --d 0,0,1', 0,
     '8ac6b3db40d30e0325e8c4006caca0ead21cf5f96355f249bdd5200e618fdf87',
     None),
    ('trop rank --n 4', 0,
     '85a2eb0af6287236775d95a9236eb87ed1443cfc6f616d760676e4ec16bb7efa',
     None),
    ('paper-check', 0,
     '7170a5e75ed2a044a970d6b8d4ce4091ade7a4ceeffe87360fca861b9827c6ae',
     None),
    # A4 and the D4 centre quiver
    ('cone degree --quiver 1>2,2>3,3>4 --word 4,3,4,2,3,4,1,2,3,4', 0,
     '1096d89966710d7c548107441d4f72003475978fb64ebb96a1fe0541d2f1ee05',
     None),
    ('cone check --quiver 1>2,2>3,3>4 --word 4,3,4,2,3,4,1,2,3,4 --type A4', 0,
     '7b39a83f56a2f919c17cbb811265309014aab954a4e789bc4b7adf77ab33bc91',
     None),
    ('quiver middle --quiver 1>2,2>3,3>4 --word 4,3,4,2,3,4,1,2,3,4', 0,
     '92adc2c57a9250f058f042b5e1b412e1b6864e6160fa7ecf35d630d83f5d8870',
     None),
    ('quiver middle --quiver 1>2,2>3,3>4 --word 4,3,4,2,3,4,1,2,3,4 --mode filter', 0,
     '4927407c1f039c981bbb10f330a76c76a6fcb25a7cd005364385310ad97964e8',
     None),
    ('quiver superfluous --quiver 1>2,2>3,3>4 --word 4,3,4,2,3,4,1,2,3,4', 0,
     'f6ee599f442fa69a4c4ad3f2badf23032c53614819f95c035f00dd5cdd7c5f54',
     None),
    ('cone degree --quiver 1>2,3>2,4>2 --word 2,1,3,4,2,1,3,4,2,1,3,4', 0,
     '7f5494b40df560db1be11ae8be0210da9edf51c0cf94519db2e937bc6240e621',
     None),
    ('cone check --quiver 1>2,3>2,4>2 --word 2,1,3,4,2,1,3,4,2,1,3,4 --type D4', 0,
     '937103bc7bafeff08bae195e2343a6fe4be40cb9578cfed5139ee9f7a4737f96',
     None),
    ('quiver middle --quiver 1>2,3>2,4>2 --word 2,1,3,4,2,1,3,4,2,1,3,4', 0,
     '94dc26c6e561296734c57a01c71faee302a0d560397a0e72c05fd8ccd5abc99a',
     None),
    ('quiver superfluous --quiver 1>2,3>2,4>2 --word 2,1,3,4,2,1,3,4,2,1,3,4', 0,
     '54965ffdeb788fe505e70021d483fec301d506e5b0856d9b252e6654b988d057',
     None),
    ('quiver ar --quiver 1>2,3>2,4>2 --word 2,1,3,4,2,1,3,4,2,1,3,4', 0,
     '7844620e75ee94f6e5b6df2363ff2d6a33e484161fc3de4d60de905d7904f24f',
     None),
    # small K-theory bounds; 2 and 3 emit a witness
    ('quiver ktheory --quiver 1>2,2>3 --word 3,2,3,1,2,3 --bound 2', 2,
     'c111518a406418ff9360ec2e1925b448cff25ccaaef118ecb7328090d3629281',
     None),
    ('quiver ktheory --quiver 1>2,2>3 --word 3,2,3,1,2,3 --bound 3', 2,
     '900cea75b4ed2a3ab217b81eb60e236ad926fc6f9588bcf18edd8dd787ba94eb',
     None),
    ('quiver ktheory --quiver 1>2,2>3 --word 3,2,3,1,2,3 --bound 4', 0,
     '1f2eb6788f19f44e0d0faa8a891912b978cc8c8f82fc942737389815fd4c62fc',
     None),
    # Hall products, commutators and term checks on A3/A4
    ('hall prod --n 3 --m1 1-2 --m2 2-3', 0,
     'e119bcfd3c8a5c021b809a0ffc72646a3f0eb830f54010e63e758dd035721c10',
     None),
    ('hall prod --n 4 --m1 1-1 --m2 2-4', 0,
     '29968f2e75cb2242f2ee3ae76ec1d757c1cbde376a9531314249c8d57d46d07d',
     None),
    ('hall comm --n 3 --v 2-2 --u 3-3', 0,
     'e392b0e290e40ad273d085661610e30fb3ff7f25276509401c75191dffae4e6d',
     None),
    ('hall comm --n 4 --v 1-1 --u 2-4', 0,
     '1505f7267dcf066be24c3b1d829be0a2d07e512500ddcd4dff4e36bf1400c302',
     None),
    ('hall verify-term --quiver 1>2,2>3,3>4 --word 4,3,4,2,3,4,1,2,3,4 --k 1', 0,
     '27306bea1165d6323250c9ffcd5180f4efb61aa6e12335e896c3e0dd94d51fcf',
     None),
    ('hall poly --n 3 --v 2-3 --w 3-3 --x 2-3,3-3', 0,
     'd7a436ce0239876474cd9f1603e1eafb0d7f6d4d5c9e4f649bd236d08543f3ae',
     None),
    # input errors: exit 1 with a one-line message
    ('roots betas --type A2 --word 1,1,2', 1,
     'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
     'b46c81c404eee9637d01ac4a755713cec1e74f9c169b3afbef527e257aeb681d'),
    ('roots betas --type Z9 --word 1', 1,
     'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
     'bb01163377298a24de1b8cf9a099cc7fb1654c14b997451d559cbafa6fe74521'),
    ('cone check --quiver 1>2,2>3 --word 3,2,3,1,2,3 --type A2', 1,
     'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
     'cc588d612cb54b48808101f29c7bbf29738dc84f38cab8121c2d250a9c255bee'),
    ('cone degree --quiver 1>2,2>3 --word 1,2,1,3,2,1', 1,
     'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
     '5bc503f94193b50de722256e4eb68834d1bb01e30f46a05892d40ab4dbd1ded7'),
    ('hall prod --n 6 --m1 1-1 --m2 2-2', 1,
     'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
     'd26290f0fd4666fe4afcece542bb5a640f84046448d4a078f27e3ddab696b0ad'),
    ('trop rank --n 9', 1,
     'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
     'efd523e59644a16593e429d557eace01ac6760faa10ac9f74f450fa368d29cc6'),
    ('trop check --n 3 --d 1/0,0,0', 1,
     'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
     '8d4d81e1d84b626a507583e7442c6f4b02188e9216e1855b704b552c295f3edd'),
]


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _invoke(capsys, argv):
    try:
        code = run(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("argv,code,out_sha,err_sha", CORPUS, ids=[c[0] for c in CORPUS])
def test_cli_corpus(capsys, argv, code, out_sha, err_sha):
    got_code, out, err = _invoke(capsys, argv.split())
    assert got_code == code
    assert _sha(out) == out_sha
    if code == 1:
        assert _sha(err) == err_sha
