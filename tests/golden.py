"""Pinned sha256 digests of certify, check and bezoutian output.

The tests read these lists; run as a script, this file needs no pytest and
no numpy and replays five pins on the interpreter at hand:

    PYTHONPATH=src:tests python tests/golden.py

It compares the sample stream with the Random.randint oracle (dimensions
1-6, seeds 0-9, 200 samples each), the stdout of each GOLDEN_CHECKS case of
`python -m hyperdet.cli check` and of each GOLDEN_BEZOUTIANS case of
`python -m hyperdet.cli bezoutian` with its digest, and the stdout of
`python -m hyperdet.cli certify` with its digest for the three Lorentz cases
of GOLDEN_CERTIFICATES (their Gram rows fix the one Gram matrix, so certify
runs no SDP and needs no numpy), runs `python -m hyperdet.cli verify --cert`
on GOLDEN_CERTIFICATE_FILE, and exits 1 on the first difference or on a
verify that does not exit 0.
"""

import hashlib
import subprocess
import sys
from pathlib import Path

from hyperdet.hyperbolicity import sample_directions
from oracles import randint_sample_directions

# sha256 of the certify JSON on stdout, pinned so that certificates stay
# byte-identical across changes to the pipeline, not only from run to run.
# The Lorentz cones, the first two and the last, are also replayed by main()
# below.
GOLDEN_CERTIFICATES = [
    ("x0^2 - x1^2 - x2^2", "1,0,0",
     "02653452adcc7a00a88aaee18de5f4dedcec7e8e14277817a68c82c30736eaf6"),
    ("x0^2 - x1^2 - x2^2", "2,1,0",
     "93758e73db878240f5f17aadf8d89d74fa4a2771ede3118c7211ce8b2c7fb081"),
    ("x0^3 - x0*x1^2 - x0*x2^2", "1,0,0",
     "0db68338e966ee5f498d018d56fae1cfceca48a52ac6fa5a539bfcf81cfce843"),
    # random_pencil_determinant(random.Random(3001), 3, 3): an N=6 pencil.
    ("x0^3 + 1/2*x0^2*x1 - 3/4*x0*x1^2 + 17/4*x0*x1*x2 - 9*x0*x2^2 + 1/8*x1^3"
     " - 5/4*x1^2*x2 + 21/4*x1*x2^2 - 8*x2^3", "1,0,0",
     "117278e70e0502c0978d969a2ee9a06ccf765f5f8065bb47bcd8c8893b37dd3d"),
    # A direction with denominators 8 and 16 makes h dense: it pins the
    # substitution x = T^-1 y on non-unit denominators in four variables.
    ("x0^2 - x1^2 - x2^2 - x3^2", "1,1/8,-1/16,1/8",
     "3186a9286d1c6681a1b4369d9553d1a4e0dac8fb667ea35cef53851cd84468c7"),
]

# The certify stdout of GOLDEN_CERTIFICATES[3], kept as a file: a certificate
# written before a change to the replay must still verify after it.
GOLDEN_CERTIFICATE_FILE = Path(__file__).parent / "data" / "hv3-3001.json"

# sha256 of the check JSON on stdout, pinned so that both sampled verdicts,
# their witnesses and sample counts stay the same across rewrites of the
# real-root routine.  Four inputs pass, one is not hyperbolic along a tilted
# direction, and two are singular.
GOLDEN_CHECKS = [
    ("x0^2 - x1^2 - x2^2", "2,1,0", 0,
     "52fb44c4e5d01ed02c8214d09c50fff2fd780fc1cc23a82f4d7c8592770e0915"),
    (GOLDEN_CERTIFICATES[2][0], "1,0,0", 0,
     "52fb44c4e5d01ed02c8214d09c50fff2fd780fc1cc23a82f4d7c8592770e0915"),
    (GOLDEN_CERTIFICATES[3][0], "1,0,0", 0,
     "52fb44c4e5d01ed02c8214d09c50fff2fd780fc1cc23a82f4d7c8592770e0915"),
    ("x0^2 + x1^2 + x2^2", "2,1,0", 1,
     "cbbbc1aab63122f43e9d6ba0ef1a39a1761fad22e944fed585959b72530de4b2"),
    ("x0*x1*x2", "1,1,1", 1,
     "8c8063fd571e2b4b601d410d992828d5d0319df115b4ecb9529e76e106f980f2"),
    ("x0^2 - x1^2", "1,0,0", 1,
     "88b0bd64635ed54e314748df1f36fb3c749a75e20566f3fb0b372d7d36110425"),
    (GOLDEN_CERTIFICATES[4][0], GOLDEN_CERTIFICATES[4][1], 0,
     "52fb44c4e5d01ed02c8214d09c50fff2fd780fc1cc23a82f4d7c8592770e0915"),
]


# sha256 of the bezoutian stdout, json and text, for the inputs of
# GOLDEN_CERTIFICATES: the rows of delta and of the Bézoutian of dh/dx0 as
# the command prints them.
GOLDEN_BEZOUTIANS = [
    (GOLDEN_CERTIFICATES[0][0], "1,0,0", "json",
     "99ac1cbe8b947973c8f24fb1332b4a17ad5294df7de5656118154f2fe4a4a471"),
    (GOLDEN_CERTIFICATES[0][0], "1,0,0", "text",
     "7fb5ed4ea9cb6ea824c4df417d68cdc47630d70111106f65e1f9d076164b52bb"),
    (GOLDEN_CERTIFICATES[1][0], "2,1,0", "json",
     "917fbef106083c013dc289ca9b40346c74edd64d0c30834dc759a212fb13a4f5"),
    (GOLDEN_CERTIFICATES[1][0], "2,1,0", "text",
     "5e251b5850f6fb62b17a060734ef6f89501f18e409dc54b3e9650d5f5e8da7aa"),
    (GOLDEN_CERTIFICATES[2][0], "1,0,0", "json",
     "3d94d92b4ac95ef4f227126958750e37dcfff43e38ecaa42ddd660ebf45b10ea"),
    (GOLDEN_CERTIFICATES[2][0], "1,0,0", "text",
     "4fba539b604a5d9cdb70f490323322d2b1d880650ef40e94791e2bcca6d89a7f"),
    (GOLDEN_CERTIFICATES[3][0], "1,0,0", "json",
     "7a5e2a0ce4c0eff707bbae1859f5798e1beaa78e63eb6435f21d6761d551755a"),
    (GOLDEN_CERTIFICATES[3][0], "1,0,0", "text",
     "2800f3b01c137375025d1d31cdb632dca74397e47909eec4b6e5607e01395fd8"),
    (GOLDEN_CERTIFICATES[4][0], GOLDEN_CERTIFICATES[4][1], "json",
     "fc6f36d8ee8480e1e78ba4ff35baa853506c3df0b6dde2d46a78a406c0368c1e"),
    (GOLDEN_CERTIFICATES[4][0], GOLDEN_CERTIFICATES[4][1], "text",
     "99ee2747a9e48a33824d6289b8c1f195fb9a3e255077435407eb5dd5e061b647"),
]


def main() -> int:
    for dim in range(1, 7):
        for seed in range(10):
            if list(sample_directions(dim, 200, seed)) != list(randint_sample_directions(dim, 200, seed)):
                print(f"sample stream differs from randint's: dim={dim}, seed={seed}")
                return 1
    print("sample stream: randint's, dims 1-6, seeds 0-9")
    for poly, direction, exit_code, digest in GOLDEN_CHECKS:
        done = subprocess.run([sys.executable, "-m", "hyperdet.cli", "check", "--poly", poly, "--e", direction],
                              capture_output=True)
        got = hashlib.sha256(done.stdout).hexdigest()
        if (done.returncode, got) != (exit_code, digest):
            print(f"check --poly {poly!r} --e {direction}: exit {done.returncode}, sha256 {got}")
            return 1
        print(f"check --e {direction}: exit {exit_code}, sha256 {got[:8]}")
    for poly, direction, fmt, digest in GOLDEN_BEZOUTIANS:
        done = subprocess.run([sys.executable, "-m", "hyperdet.cli", "bezoutian", "--poly", poly,
                               "--e", direction, "--format", fmt], capture_output=True)
        got = hashlib.sha256(done.stdout).hexdigest()
        if (done.returncode, got) != (0, digest):
            print(f"bezoutian --poly {poly!r} --e {direction} --format {fmt}: "
                  f"exit {done.returncode}, sha256 {got}")
            return 1
        print(f"bezoutian --e {direction} --format {fmt}: exit 0, sha256 {got[:8]}")
    for poly, direction, digest in GOLDEN_CERTIFICATES[:2] + GOLDEN_CERTIFICATES[4:]:
        done = subprocess.run([sys.executable, "-m", "hyperdet.cli", "certify", "--poly", poly, "--e", direction],
                              capture_output=True)
        got = hashlib.sha256(done.stdout).hexdigest()
        if (done.returncode, got) != (0, digest):
            print(f"certify --poly {poly!r} --e {direction}: exit {done.returncode}, sha256 {got}")
            return 1
        print(f"certify --e {direction}: exit 0, sha256 {got[:8]}")
    done = subprocess.run([sys.executable, "-m", "hyperdet.cli", "verify", "--cert", str(GOLDEN_CERTIFICATE_FILE)],
                          capture_output=True)
    if done.returncode != 0:
        print(f"verify --cert {GOLDEN_CERTIFICATE_FILE.name}: exit {done.returncode}")
        return 1
    print(f"verify --cert {GOLDEN_CERTIFICATE_FILE.name}: exit 0")
    return 0


if __name__ == "__main__":
    sys.exit(main())
