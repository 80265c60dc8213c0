"""Golden bytes for the sealing substrate.

Every replica id, commitment and scenario row hashes bytes produced by
the keystream (``crypto/prng.py``), the sealing XOR (``crypto/porep.py``),
the Merkle tree (``crypto/merkle.py``) and the client pad
(``storage/client.py``).  The constants below pin those bytes exactly;
any rewrite of the substrate must reproduce them.  Inputs are built from
a fixed arithmetic pattern, never from the PRNG under test.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.crypto.merkle import MerkleTree, merkle_root
from repro.crypto.porep import PoRepParams, PoRepProver
from repro.crypto.prng import DeterministicPRNG, xor_bytes
from repro.storage.client import StorageClient


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _pattern(length: int) -> bytes:
    return bytes((i * 131 + 7) & 0xFF for i in range(length))


# ----------------------------------------------------------------------
# Observations (each returns plain data comparable to a constant)
# ----------------------------------------------------------------------
#: Mixed read lengths: empty, sub-block, exact block, block + 1, a full
#: 64 KiB replica, then reads that start inside a leftover buffer.
PRNG_READS = (0, 1, 31, 32, 33, 65536, 0, 5, 27, 40, 64, 3, 29, 100)


def prng_trace(seed: bytes, domain: str) -> list:
    prng = DeterministicPRNG(seed, domain=domain)
    rows = [("start", prng.state_fingerprint().hex())]
    for length in PRNG_READS:
        chunk = prng.random_bytes(length)
        assert len(chunk) == length
        rows.append((length, _digest(chunk), prng.state_fingerprint().hex()))
    return rows


def prng_samples() -> list:
    prng = DeterministicPRNG.from_int(2022)
    head = prng.random_bytes(48).hex()
    ints = [prng.randint(0, 999) for _ in range(12)]
    floats = [repr(prng.random()) for _ in range(3)]
    child = prng.spawn("child", 3).random_bytes(16).hex()
    return [head, ints, floats, child, prng.state_fingerprint().hex()]


SEAL_SIZES = (0, 1, 1000, 4097, 65536)


def _commitment_row(replica) -> tuple:
    commitment = replica.commitment
    return (
        _digest(replica.data),
        commitment.data_root.hex(),
        commitment.replica_root.hex(),
        commitment.encryption_key_id.hex(),
        commitment.size,
    )


def seal_trace(chunk_size: int) -> list:
    prover = PoRepProver(PoRepParams(chunk_size=chunk_size))
    rows = []
    for size in SEAL_SIZES:
        key = f"seal-key-{size}".encode()
        replica = prover.setup(_pattern(size), key)
        rows.append(
            (size,)
            + _commitment_row(replica)
            + (
                _digest(prover.unseal(replica, key)),
                _digest(prover.unseal(replica, b"wrong-key")),
                prover.prove(replica, key).binding.hex(),
            )
        )
    return rows


CR_SIZES = (0, 1, 1024, 1025, 65536)


def capacity_trace(chunk_size: int) -> list:
    prover = PoRepProver(PoRepParams(chunk_size=chunk_size))
    return [
        (size,) + _commitment_row(prover.capacity_replica(size, f"cr-key-{size}".encode()))
        for size in CR_SIZES
    ]


MERKLE_SIZES = (0, 1, 1023, 1024, 1025, 65536)


def merkle_trace(chunk_size: int) -> list:
    rows = []
    for size in MERKLE_SIZES:
        tree = MerkleTree.from_data(_pattern(size), chunk_size)
        index = tree.leaf_count // 2
        proof = tree.prove(index)
        rows.append(
            (
                size,
                tree.root.hex(),
                tree.leaf_count,
                index,
                proof.leaf_hash.hex(),
                _digest(b"".join(proof.path)),
                proof.directions,
            )
        )
    return rows


def client_trace() -> list:
    client = StorageClient("golden-client")
    pad = client._encrypt(bytes(100))
    prepared = client.prepare_file("f", _pattern(5000), value=1, encrypt=True)
    return [pad.hex(), _digest(prepared.data), prepared.merkle_root.hex()]


# ----------------------------------------------------------------------
# Pinned values
# ----------------------------------------------------------------------
GOLDEN_PRNG_TRACE = [('start', '8d14ec681c84f33103847786124e944d4bec8df0455b4485d935d0096f24a1af'),
 (0,
  'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
  '8d14ec681c84f33103847786124e944d4bec8df0455b4485d935d0096f24a1af'),
 (1,
  '4a64a107f0cb32536e5bce6c98c393db21cca7f4ea187ba8c4dca8b51d4ea80a',
  '0a2c66d71d827c567b6554da610b2b48da315321898abad78cdd19786d229f32'),
 (31,
  '14dc87b938d2ba04afb9b2e4c6fe706f4628f0e71a8191f8cc18422faa3ab09b',
  'abe2b1a9a721a24dca222d3ecb3361ec2401801eeb72ae2dad3346a5c3240059'),
 (32,
  '7afa4f6d8023ffc83ee058fb7b12247fe1e8c40c6df661300e4e9c0edc8a319a',
  '2c7e8611919f99031c099a542f95c6c8a7d7ee56130274581fc2a8d9f3dbfcac'),
 (33,
  'c5e781bc2eeaf313787bc0affc71eb2ab8560872b082c30786552e844959c3df',
  '53084a5f97876807712dff1804c7c5b0cf1339c66f6faa5959b4913568556195'),
 (65536,
  'c657a2025be237306dadd869f1e49e6b7a4cc58889b1b05bbb220f85aeca3a67',
  'feaf1ac53cb8cea9c7df05f04516ac008d6c197ea7b922f3dda4044c207b3d0a'),
 (0,
  'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
  'feaf1ac53cb8cea9c7df05f04516ac008d6c197ea7b922f3dda4044c207b3d0a'),
 (5,
  'd25e8a2b760aa4f43ec88c0b4e3a095c36637a266bbd29d46465520c09329282',
  '7fb76b1d32ed9a93eba1eff7efe6e60cf90b6794f9eea7cf77d17ca6d92090d1'),
 (27,
  '4d512447fd74809b7b8930ccdec67cab1d39be186ec73464dfc1d186799d918f',
  '7d12d70899881a4dc6c1bea72772d0fab9e6e4caf7bd03dc4b1555c95e1faf9c'),
 (40,
  'feca941b3323dd7ed8fe5457b413c41db2b697232d4152cba2f015d8366e6514',
  'ff710f32504acc0d5be51602127070cacd0b771ec38c6208727f79582a90bd30'),
 (64,
  '1a5c0f426d9ede393bbf63a0c2b54560d7f3c40d4e36e804ef5dfe468baa8e38',
  'f9df48c8d29eff5d521090288b82f3d86eb15d7d80587579f34bc145340e7d09'),
 (3,
  '206863499912ff9cd03f4512227b6284c73bc816b6d24175685cdf0394bec644',
  '8110625d513aa476eef47db386160cfd14f5efcebc3ae99ef1368af70e5cc3e8'),
 (29,
  '171b49a663032dd9c8627eb20682488fb32a2af78d9f80bb6c20c1e57a9da53d',
  '0689fa7370a3b360633a85adfe395e2aac23e350c31512631f3a1790f3addce2'),
 (100,
  '5806e4c8ee40117070f37e98e7db16ca880f091347d8f43becf4fbc287e2961e',
  '877cdd9b6ab9ed30fa5fe665382e51052bc8cc361df80f4adb3993fd59bb0aa0')]

GOLDEN_PRNG_SEAL_DOMAIN_TRACE = [('start', '7f9f34e17c41f4cbf6866f9ce78bb992be24c3f8e85f524976fa04a227bad672'),
 (0,
  'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
  '7f9f34e17c41f4cbf6866f9ce78bb992be24c3f8e85f524976fa04a227bad672'),
 (1,
  'ae3f4619b0413d70d3004b9131c3752153074e45725be13b9a148978895e359e',
  'f3443513d3d09196d055975011630520527f1b3465a92a834fee9218c7fcb8dc'),
 (31,
  'db4e26c6e7f092ec1f33387726c09757aed5ad43188ac991a4e788c69707d361',
  '31d52cb62732836a203dcffefd5e8aec28e7c99cc51c6b04d0e32caaaba6f644'),
 (32,
  '9c09c52f3fb14f0fd1bb9b3fb6cdc42dc018f089dea6ba439ead45b4a2b9b6c7',
  '3f8218a95b96de6ffb2767bf2b671b6e629268236f784e5133848d73fafb5ee0'),
 (33,
  'a0d246fdb439189f797eaa045f75bf84e29a334b69f45aa57464b4c20c84d414',
  '75932b2ae47e7990473541ad23fc874b31d7335ccfb70e92f37121dde486fb63'),
 (65536,
  'f46f60bee97e1aa1e14db8ae784c844b7e567dc7f633217159da17ffdde72266',
  'd87dd97bc0569e25fd3af3aed3b051344e726494d3c0dcf7f5b68af4306b49a0'),
 (0,
  'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
  'd87dd97bc0569e25fd3af3aed3b051344e726494d3c0dcf7f5b68af4306b49a0'),
 (5,
  'e21fdbc2d602464e101ba08257a75f41e653bcb83811d1e98503499c4a986e00',
  'f54cb63d712552da6db73e9148f3389c55c24b5744c5d9f690b77f5347758af5'),
 (27,
  'eaceb68255e1b55a27388bc1452518e90169d2a8be7d63683a50dd3eabf94e89',
  '4cfad2d2b60c0388ac7435b33dcd974c6e8f13a5a1eb93de5680abcee7ff535c'),
 (40,
  '71011a8d43fb8967928bf89ed783dec1bb32b36cf3c646d3575552119ff59ebf',
  '304b2990d3f9ea3512f22029a6e27e8ce228c6cd78bb51c90fdcf24f0aae1bc9'),
 (64,
  '5a5bd7c4f6e7684c011e16618b27195143b868b7a2a254edaa587dac180396ba',
  '168d8e50baa5e619d4427bcca6eb1b542b0ebdee942cb436fa348f7070fe2f03'),
 (3,
  '8e0d6424895f64625fe8be5ed08e25559dcea52b16e5e07594ccf1d9237903c1',
  '084e10e24607ca0bef324846690c7642ce06ed0c21c3630d0f171be783735be9'),
 (29,
  'd42bab83663bf2f45eb9abd506875383145b2d83e66469ede2f3fe64468ff12e',
  '6b153b69e96a6a61b832410ba8ed0a1add9b7963e5672e33c6761049ea639458'),
 (100,
  'c0776a8f7645751835add6c9536d31458270098b4a116631eb4b5d11da7562b1',
  '0f1a61f45a5148aff4058b0b88f775a6c1ae50e93e27c3bca8fa71f847adc49c')]

GOLDEN_PRNG_SAMPLES = ['44f67c4ce748d593d7ac6117da53221e23cad1576f22cecb637642b47750892c3c0da7566b92493c6d39faaae9d03ae1',
 [630, 126, 767, 155, 147, 576, 255, 81, 453, 439, 744, 777],
 ['0.8691272274568808', '0.4156476955170093', '0.37108897444018274'],
 'e52d37519a0c17440c00e89289cdcde2',
 '5a5d76bd7783f17d7433786770600835fbb60c058ba70ac999945be5a4b7ad2d']

GOLDEN_SEAL_1024 = [(0,
  'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
  '225e8b0669f42feb38bc1d07704ef23ec77341427d2e8cd9403b7d381937cfae',
  '225e8b0669f42feb38bc1d07704ef23ec77341427d2e8cd9403b7d381937cfae',
  '1b6d3846c2ef5a084d9512f0092096cb979162aea3e0da088008472c148dba01',
  0,
  'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
  'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
  '3bc45ed4874f6c9855682c3cb510f1eed9868257fb00b52d93b3c2eab28bcce4'),
 (1,
  '8c2574892063f995fdf756bce07f46c1a5193e54cd52837ed91e32008ccf41ac',
  'f501f907a3f4d5afbc8f2441e5e81ba580275cab6f15d4acddd49b3e3cd16cb0',
  'c74ccce07b00f017075f1a11b14503ef7b4abff206d8e71021057cf72b452511',
  '61179916210150c2413054cdf77a0cbe175d2b64e13054dbd262c5d904922de9',
  1,
  'ca358758f6d27e6cf45272937977a748fd88391db679ceda7dc7bf1f005ee879',
  '9be3799f24592e94e1f7991e5f312648a509ce2fb1edbafa50a66b65c916539a',
  'bec08de14640813934e1ef2dc44d8d2793e63464b70abeee7fab1ba74456bf67'),
 (1000,
  '8398ba0805fc791f41fb973561ec3e3c3ddbf61244e6d1f3d9152bbd1e93d6ab',
  '1fbda40fef59b5328c8baa6a9fdd4bb63f865e214a6c34cab92bbc4dd80b25c7',
  'ac5acc3422305d32183b76e2f3480a219037bc635a0a370ff29d351cf9c4f422',
  '0821a1fab08b682311395717a3bc6a0803415f24e7acd6671ce03edcfca89754',
  1000,
  '533b698850849b7908b20a22658f639c0b2a476f1791f85f50188287c31a9aba',
  '44a2284bd6dfdf4ab517216f18d95148ee158774c730c98d6413988541660d8e',
  '2eb17cedd569df120578f4a02ababce0be8807b0d5c5049388b9998688ac62f5'),
 (4097,
  '3cdc94e760549daeeeb066766efbe3aa645b253796f184a70561125682351cb7',
  '1912f1594dc6494712aca5e030d0964eefcb207a6bcdb453bdf94f581e7f4254',
  'dde6547955ba08b8ca1c98101abe07857f89bd283126a8e9fc5e343a07fab968',
  'b82bbd21d33794ab5947a6adcd2cbb2726f098a70c4b5be43a091bd6450c1ffc',
  4097,
  '265eb02ffd0a68c82b2c2280e8dbb61681034b21c3386c29cc046215d0fd0fa4',
  '1c0c99f0eb0fd34b2377adbd29a728bdb6b7052345fd89d076e052abc447101d',
  '0790d0928847c3b540ac7569ced8849fd6257df287db76124a9c63cd00b86b0e'),
 (65536,
  '16c3c6d7bc1c451c028c3b990a1730ae91f412823077b9fdd46a71a6f3581811',
  'd4db5568271a2e78472ac003ea326fa28fdd09e06910f1741ff4d793bc85ee0a',
  '8f6e39d85d1b69498d008a6554bc07fe94f2d6a346bec85c77582df46432412e',
  '908fb9ae25d34e7f8528e56bceaf720dc28d5cf0d36c83f5955a59252b72c81e',
  65536,
  '729512428e9663885f746f2b8b2aaafd55f8324b84600b79ff1cf4ea73b385ba',
  'bbf2a82360c4299625cb763407a44bb447f0b5e626b5ced60a5627752659cbbe',
  'dee62b9b34baefa347a8967d68d84c17a15feb3cdc2e1775ded9f34769909108')]

GOLDEN_SEAL_64 = [(0,
  'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
  '225e8b0669f42feb38bc1d07704ef23ec77341427d2e8cd9403b7d381937cfae',
  '225e8b0669f42feb38bc1d07704ef23ec77341427d2e8cd9403b7d381937cfae',
  '1b6d3846c2ef5a084d9512f0092096cb979162aea3e0da088008472c148dba01',
  0,
  'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
  'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
  '3bc45ed4874f6c9855682c3cb510f1eed9868257fb00b52d93b3c2eab28bcce4'),
 (1,
  '8c2574892063f995fdf756bce07f46c1a5193e54cd52837ed91e32008ccf41ac',
  'f501f907a3f4d5afbc8f2441e5e81ba580275cab6f15d4acddd49b3e3cd16cb0',
  'c74ccce07b00f017075f1a11b14503ef7b4abff206d8e71021057cf72b452511',
  '61179916210150c2413054cdf77a0cbe175d2b64e13054dbd262c5d904922de9',
  1,
  'ca358758f6d27e6cf45272937977a748fd88391db679ceda7dc7bf1f005ee879',
  '9be3799f24592e94e1f7991e5f312648a509ce2fb1edbafa50a66b65c916539a',
  'bec08de14640813934e1ef2dc44d8d2793e63464b70abeee7fab1ba74456bf67'),
 (1000,
  '8398ba0805fc791f41fb973561ec3e3c3ddbf61244e6d1f3d9152bbd1e93d6ab',
  '51ec7238329c4d3654e4d6eae7f9192595f03e1b727ccd104c4bb9f783d9519b',
  'c256f92eea030502f1a89662e061b6b286233329d2fb6253a6906a84839d51b2',
  '0821a1fab08b682311395717a3bc6a0803415f24e7acd6671ce03edcfca89754',
  1000,
  '533b698850849b7908b20a22658f639c0b2a476f1791f85f50188287c31a9aba',
  '44a2284bd6dfdf4ab517216f18d95148ee158774c730c98d6413988541660d8e',
  '9c384a014bcdd4142152773b5558b4698d92cc907e05f74084f21cfc54b32fc5'),
 (4097,
  '3cdc94e760549daeeeb066766efbe3aa645b253796f184a70561125682351cb7',
  '790409ee109accfea584790afb9c384f6137fefc8c9971a9e2f06eee35cceef4',
  '1bd058ccf3f2d6be16e23443fc092912cc90017de80f52c8c3447867c849bf46',
  'b82bbd21d33794ab5947a6adcd2cbb2726f098a70c4b5be43a091bd6450c1ffc',
  4097,
  '265eb02ffd0a68c82b2c2280e8dbb61681034b21c3386c29cc046215d0fd0fa4',
  '1c0c99f0eb0fd34b2377adbd29a728bdb6b7052345fd89d076e052abc447101d',
  'f441a0abf56b75fdbe16c53f15425903d4a1084d9fd7c138d648723aa8030df9'),
 (65536,
  '16c3c6d7bc1c451c028c3b990a1730ae91f412823077b9fdd46a71a6f3581811',
  'a9453488b935914b483656915505a1fd79b4e6f2dd254e0f7cd043c1b7437049',
  '7570567d3ddb50862f5f0e2cbceb8ae7ac9bc821defc795fc9459afc0f91447f',
  '908fb9ae25d34e7f8528e56bceaf720dc28d5cf0d36c83f5955a59252b72c81e',
  65536,
  '729512428e9663885f746f2b8b2aaafd55f8324b84600b79ff1cf4ea73b385ba',
  'bbf2a82360c4299625cb763407a44bb447f0b5e626b5ced60a5627752659cbbe',
  '6dd45934d0a705a23c6ed4697062cfb0d7336cbc1c71b69640650ec120cbe539')]

GOLDEN_CAPACITY_1024 = [(0,
  'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
  '225e8b0669f42feb38bc1d07704ef23ec77341427d2e8cd9403b7d381937cfae',
  '225e8b0669f42feb38bc1d07704ef23ec77341427d2e8cd9403b7d381937cfae',
  'aed5fde087c2d820567b116b4d38d6f54e6ef29e5bf205dad940b9eaa47728a5',
  0),
 (1,
  '58f7b0780592032e4d8602a3e8690fb2c701b2e1dd546e703445aabd6469734d',
  'e86a595fca12e558fe0e397a008a9babcaee0a542df9e8c434573080db3c5319',
  'e902fb1421021688dd5c55a08147898259f96745a38a14a7f443486c1242f9bb',
  '1ca2723461e773301e5ce9bd760d97746f6d9266a43fcd3d8c791197966ccb47',
  1),
 (1024,
  '3cc092934da40e36ec216ebc5a81301f2f0b90373ffdb2362f41de0a081af11e',
  '5b4edb5acdfd01b7105fe349aae6406d9520fe2f9a120ce5fa78722f6249046c',
  '6cff0b6d209958728841eae5b3de2348c2b52f7e3d6798d20b1e1003c9c2477e',
  '98549cba480c164d8121e3bf55a6634abd21df76da2e3fb8716a3d18e1fc732d',
  1024),
 (1025,
  'adcc277f19389f9fc5eb841734b43906aa99c98f28275bf075fbdce3be23b54b',
  '59d72fc196262ac34c8983241cfb15399ca0e81d5aa6915c497443ca347bd268',
  '27b4779132ed8a6f1f7d5ab0e3f2d34fb8dae0e31c65db3f3f8f223a0e9a5a54',
  'b295a33e4760151bf4e0dbe340814ae688f07c21d4ff40a5b3eb212539e362cd',
  1025),
 (65536,
  '1b29ce78f3ae36c9e164c3e4ea2e580ad23619377ab971bfc3ee0d47d173504b',
  '4ed4582b61ddbed800df61d55d06aff0120fc50469b9863e76173e71b1624834',
  '1b01978a1e106e8202ab528ed0f4515ae6db407d4a723839ed6ffe8b1c667732',
  '8d2bc29e096f49ccace8334a28773d3cc937f8884525c1ae07c0e01ee65756a2',
  65536)]

GOLDEN_CAPACITY_100 = [(0,
  'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
  '225e8b0669f42feb38bc1d07704ef23ec77341427d2e8cd9403b7d381937cfae',
  '225e8b0669f42feb38bc1d07704ef23ec77341427d2e8cd9403b7d381937cfae',
  'aed5fde087c2d820567b116b4d38d6f54e6ef29e5bf205dad940b9eaa47728a5',
  0),
 (1,
  '58f7b0780592032e4d8602a3e8690fb2c701b2e1dd546e703445aabd6469734d',
  'e86a595fca12e558fe0e397a008a9babcaee0a542df9e8c434573080db3c5319',
  'e902fb1421021688dd5c55a08147898259f96745a38a14a7f443486c1242f9bb',
  '1ca2723461e773301e5ce9bd760d97746f6d9266a43fcd3d8c791197966ccb47',
  1),
 (1024,
  '3cc092934da40e36ec216ebc5a81301f2f0b90373ffdb2362f41de0a081af11e',
  '4f8b36db91f7506846dd8e3d589b92fe4dc842e6ca73646e765a97b2f040843c',
  '20ff1a603326352b1d1ce06d5a28ea57ce0987fadf2da42d468125e48c40b5e8',
  '98549cba480c164d8121e3bf55a6634abd21df76da2e3fb8716a3d18e1fc732d',
  1024),
 (1025,
  'adcc277f19389f9fc5eb841734b43906aa99c98f28275bf075fbdce3be23b54b',
  'a61b6f43457484df2e10e65be03e9c2ba5c858f04ff316517acd54c5e9cf23df',
  '5a81ec11dfa2b9df999dbebc755bc3780b178e6a802f26e05af2627613347baf',
  'b295a33e4760151bf4e0dbe340814ae688f07c21d4ff40a5b3eb212539e362cd',
  1025),
 (65536,
  '1b29ce78f3ae36c9e164c3e4ea2e580ad23619377ab971bfc3ee0d47d173504b',
  'e658f3a5c6730deed6277efb64485c541c0b5943340ef1a39089a5c4c32d1258',
  '7ee5acc8845d6d8e238eca104a0a6bc225bcad1938d3d94c08a15e14fec4f3cc',
  '8d2bc29e096f49ccace8334a28773d3cc937f8884525c1ae07c0e01ee65756a2',
  65536)]

GOLDEN_MERKLE_1024 = [(0,
  '225e8b0669f42feb38bc1d07704ef23ec77341427d2e8cd9403b7d381937cfae',
  1,
  0,
  '225e8b0669f42feb38bc1d07704ef23ec77341427d2e8cd9403b7d381937cfae',
  'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
  ()),
 (1,
  'f501f907a3f4d5afbc8f2441e5e81ba580275cab6f15d4acddd49b3e3cd16cb0',
  1,
  0,
  'f501f907a3f4d5afbc8f2441e5e81ba580275cab6f15d4acddd49b3e3cd16cb0',
  'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
  ()),
 (1023,
  '620f47c55e6f249ba78629fc82ca7adaed88fe4cb24c58267ce52930ede85181',
  1,
  0,
  '620f47c55e6f249ba78629fc82ca7adaed88fe4cb24c58267ce52930ede85181',
  'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
  ()),
 (1024,
  'ac50a7af7a68fcafa5cf41f32250505c9738d56c1cff4fc292349f1ad5324de6',
  1,
  0,
  'ac50a7af7a68fcafa5cf41f32250505c9738d56c1cff4fc292349f1ad5324de6',
  'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
  ()),
 (1025,
  'e7ddf5cfb3f00c469720e6300bc8d3c1013ad3a2d47ddee54d7908c1b907e106',
  2,
  1,
  'f501f907a3f4d5afbc8f2441e5e81ba580275cab6f15d4acddd49b3e3cd16cb0',
  '9187348184d52a173961c27d64d3117d5f24d3ec979276f95236ccdd2c301117',
  (False,)),
 (65536,
  'd4db5568271a2e78472ac003ea326fa28fdd09e06910f1741ff4d793bc85ee0a',
  64,
  32,
  'ac50a7af7a68fcafa5cf41f32250505c9738d56c1cff4fc292349f1ad5324de6',
  '113dfee4d7d9e592b2775d13846d416dce0047f91803565fd899ac9f3e2e4513',
  (True, True, True, True, True, False))]

GOLDEN_MERKLE_64 = [(0,
  '225e8b0669f42feb38bc1d07704ef23ec77341427d2e8cd9403b7d381937cfae',
  1,
  0,
  '225e8b0669f42feb38bc1d07704ef23ec77341427d2e8cd9403b7d381937cfae',
  'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
  ()),
 (1,
  'f501f907a3f4d5afbc8f2441e5e81ba580275cab6f15d4acddd49b3e3cd16cb0',
  1,
  0,
  'f501f907a3f4d5afbc8f2441e5e81ba580275cab6f15d4acddd49b3e3cd16cb0',
  'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
  ()),
 (1023,
  '18fc7eebb094ab0f6036ed17617cf10ed9cbe8db02ceff1e9c6417688ea32696',
  16,
  8,
  '1efc5e2781523c58375397d47d9eb59aa2113382e09fc1e25a457e012b77d5af',
  'db7a2cc39eb5ed57dc79857033aa42c9563b60fe84e30e18be5027cc51748c67',
  (True, True, True, False)),
 (1024,
  '90759b20d74c5b9d8cf2ace736602d8ec1eb70eec265a94a5b8c09cac2a63e3e',
  16,
  8,
  '1efc5e2781523c58375397d47d9eb59aa2113382e09fc1e25a457e012b77d5af',
  '028b6e042229225dd630bb7951777508f32e450a3d1aa7a3d7aa6898aad39fc6',
  (True, True, True, False)),
 (1025,
  '3283e15d9be849baaa8468636f5bcc696896c487d22bee7fcdaff21112573f2b',
  17,
  8,
  '1efc5e2781523c58375397d47d9eb59aa2113382e09fc1e25a457e012b77d5af',
  'e0a816647c8a99eace4404814bec704064d14689d41a2d125755f9604999e1e7',
  (True, True, True, False, True)),
 (65536,
  'a9453488b935914b483656915505a1fd79b4e6f2dd254e0f7cd043c1b7437049',
  1024,
  512,
  '1efc5e2781523c58375397d47d9eb59aa2113382e09fc1e25a457e012b77d5af',
  '0303f3b4cd6ad2e5bbcd683ac30db0c332dd9ecd4c3f67f746f6df11be809d95',
  (True, True, True, True, True, True, True, True, True, False))]

GOLDEN_MERKLE_ROOT_HELPER = 'e1a90f69f9cbfa19a0d3692c259b8e1887d898bef102b5145a082bd09d482dfb'

GOLDEN_CLIENT = ['9b9dbe3c7d65d018e4577d0d7c72f9bab37ce3c57a7f5e81bea257ba00d10396a4c2da2b08c25b98bb1c7f01623dcb2945b3912cd67e7fe238357417004423429114699145629387b883af95d2ad89d79c99ad4b4b2872d2e98a06cf224aafe194e750de',
 'b64418d0a66e858ffe0e6e1ffb5605e7595dc766ecd680d211f2e60112a72249',
 '3f8e2c86887398be340256d6dbc04f9c02849b34bf92448a95b31989f17fe69a']


# ----------------------------------------------------------------------
# Tests
# ----------------------------------------------------------------------
@pytest.mark.parametrize("seed, domain, expected", [
    (b"golden-seed", "golden", GOLDEN_PRNG_TRACE),
    (b"\x00" * 32, "porep-seal", GOLDEN_PRNG_SEAL_DOMAIN_TRACE),
])
def test_prng_stream_and_state_fingerprints(seed, domain, expected):
    assert prng_trace(seed, domain) == expected


def test_prng_derived_samples():
    assert prng_samples() == GOLDEN_PRNG_SAMPLES


@pytest.mark.parametrize("chunk_size, expected", [(1024, GOLDEN_SEAL_1024), (64, GOLDEN_SEAL_64)])
def test_porep_setup_unseal_and_prove(chunk_size, expected):
    assert seal_trace(chunk_size) == expected


def test_unseal_inverts_setup():
    for row, size in zip(GOLDEN_SEAL_1024, SEAL_SIZES):
        assert row[6] == _digest(_pattern(size))


@pytest.mark.parametrize(
    "chunk_size, expected", [(1024, GOLDEN_CAPACITY_1024), (100, GOLDEN_CAPACITY_100)]
)
def test_capacity_replica(chunk_size, expected):
    assert capacity_trace(chunk_size) == expected


@pytest.mark.parametrize("chunk_size", [1024, 100])
@pytest.mark.parametrize("size", [0, 1, 31, 32, 33, 1024, 1025, 65536])
def test_capacity_replica_equals_sealed_zeros(size, chunk_size):
    prover = PoRepProver(PoRepParams(chunk_size=chunk_size))
    expected = prover.setup(bytes(size), b"cr-key")
    # Twice: the second call may be served from a cache.
    assert prover.capacity_replica(size, b"cr-key") == expected
    assert prover.capacity_replica(size, b"cr-key") == expected


@pytest.mark.parametrize("chunk_size, expected", [(1024, GOLDEN_MERKLE_1024), (64, GOLDEN_MERKLE_64)])
def test_merkle_roots_and_proofs(chunk_size, expected):
    assert merkle_trace(chunk_size) == expected
    for size in MERKLE_SIZES:
        tree = MerkleTree.from_data(_pattern(size), chunk_size)
        assert all(tree.prove(i).verify(tree.root) for i in range(tree.leaf_count))


def test_merkle_root_helper():
    assert merkle_root([b"", b"a", _pattern(33)]).hex() == GOLDEN_MERKLE_ROOT_HELPER


def test_client_encrypt_pad():
    assert client_trace() == GOLDEN_CLIENT
    client = StorageClient("golden-client")
    assert client.decrypt(client._encrypt(_pattern(777))) == _pattern(777)


def test_xor_bytes_truncates_to_shorter():
    assert xor_bytes(b"", b"abc") == b""
    assert xor_bytes(b"\x0f\xf0\xaa", b"\xff\xff") == b"\xf0\x0f"
    assert xor_bytes(b"\x01", b"\x03\x07\x09") == b"\x02"
    assert xor_bytes(b"\x00\x00\x01", b"\x00\x00\x01") == bytes(3)
    data = _pattern(4097)
    pad = bytes(range(256)) * 17
    assert xor_bytes(data, pad) == bytes(a ^ b for a, b in zip(data, pad))
