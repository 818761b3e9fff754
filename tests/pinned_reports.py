"""The one manifest of pinned reports: each `g2f` command whose bytes are
guarded, mapped to the SHA-256 of its report.

A pin shows that a change left the report's mathematics alone, so a
declared schema or RNG-stream change is the only reason to edit one.
`test_cli.py::test_command_report_is_pinned` runs every command here
twice in one process; `test_blas_kernels.py` runs the portable ones under several
OpenBLAS kernels.

PORTABLE reports have one SHA-256 under the native OpenBLAS kernel and
under `OPENBLAS_CORETYPE=Haswell` and `Sandybridge`.  KERNEL_BOUND reports
go through LAPACK or BLAS calls whose floats differ between those kernels,
so on a CPU where OpenBLAS picks another kernel their pins fail, with no
defect in the program, until fixed-order kernels make them portable.
"""

import ctypes
import glob
import os

import numpy

PORTABLE = {
    "verify models --seed 7 --profile fast":
        "27f99075142aa159452049dcb22b3f7d536545633d0d8f6f172ea61164a18c8a",
    "verify pde --seed 7 --profile fast":
        "e5bc829f00106f32f277c61841c8fe94ef1c83ccc4de3f6090332bff051c8d1d",
    "verify pde --seed 1 --profile strict":
        "cc1857097928252c03ab0325d4b70430c762d5f3556d2007487510de25a113ea",
    "verify pde --seed 1":
        "dabfbffab1c4ffc202bfd9df50ab8e6c0f03fb3b3fa63426ce8e2a313da92de8",
    "verify models --seed 1":
        "687e807d230593d545073e4e44d71a3868f16f55d8b14ecf00ebb3bbe7ffc8df",
    "scan anisotropic --samples 2000 --seed 11":
        "dc6e455aa4037cebc59c83a33278f1aa2360166b8c9bcd73a2c137d35f9ab141",
    # three 16,384-plane blocks, so the streamed fold merges across block edges
    "scan anisotropic --samples 40000 --seed 11":
        "e4c1f1b0a476e5e446be526a4652d6efb7ed3dd09d43be7963748f078fa9f7bb",
    "scan semical --samples 1000 --seed 3":
        "9cfffec7d92b49f5f180f9788719fcae8885f58d3c0b834578964e40b0e8d8af",
    "energy --grid 8 --seed 5":
        "85467599145be99d94716cf0cf478423b2983ef801f680063bff9167e86f60d6",
    "energy --seed 0 --grid 16":
        "647ff32ac16c2cffa69ce39ed3bf4fca7ee3e194bf859068b5455eccc3875a8f",
    "solve su2 --seed 4":
        "5380a9de237111157861c16b922696af66a74ba8b3c1992e36d96b6787b50485",
    "solve flat-harmonic --seed 4":
        "385fd089cadf132e9667066540e0a4db974779936cba63f0ea95851f184be7e8",
    "solve affine --seed 4":
        "7501c9ee98133f294d719d70be468fcf664a2511a058616297238666633912b8",
    "solve su2 --seed 1":
        "b22060c5ce25c974936bd5d7d934f51f4b96178127774c6fb7663999b39de8cd",
    "solve flat-harmonic --seed 1":
        "1639dd7a6cb6e54ed3c7cc9a46aa38b450578e4c2b025ed79732fad8f3a51e5a",
    "solve affine --seed 1":
        "89b2fddd7a817f40a4fdae1e35c61e47e82d7a23f6da68629cf4125dcbc87e6d",
    "model heisenberg --B 2,0,0;0,2,0;0,0,-4 --homology":
        "ead04d6b782a7b2d58c446fbbf4ffffc3077359e07767ca2f6203a5e147a269e",
    "fm sweep --seed 5 --points 8 --format csv":
        "4392bac2f57c5bf8a5c7c7366bb3cef486e6cf947a9f961ded03dd7c9beed36b",
}

KERNEL_BOUND = {
    # moved by forced Haswell and by forced Sandybridge
    "verify algebra --seed 7 --profile fast":
        "96a610fd0186c2d6e8f613e5ab7d382f5d240c64589829f38816106439d22175",
    "verify splitting --seed 7 --profile fast":
        "75de7edabd1666300d80b4063a6453b7a7f2be5753f1b293c17b0e7893fa177c",
    "verify splitting --seed 1 --profile strict":
        "6292d8e98f991d6db812b43d848456d5f0dccfe20f967108e04168d30d890d22",
    "verify fueter --seed 9 --profile fast":
        "a2c397bce71faa39d6ab35ad8e3b5420845e5a155b50829373fb980e5f42defc",
    # moved by forced Sandybridge only
    "verify fueter --seed 7 --profile fast":
        "967caafd22a6ffb95dd3f16da1d71514596402c0a7ec09b460480b49cb792794",
    "verify fm --seed 7 --profile fast":
        "02d35592f97174f1feef170c53b1a2cfd91750452806ba2845ac0722d655bf08",
    "verify fm --seed 1 --profile strict":
        "236d0731302292ff1b0b31df9467d272a95b025888c7dad67f0547a33a1b7455",
    # moved by forced Haswell only
    "fm sweep --seed 5 --points 8":
        "48fe02234d8c1936da15b47b1fa540ee6973c2bf23718d26dcce56dc0d546ee4",
}


def blas_core():
    """The core name of the OpenBLAS this process loaded, read back from the
    library (`scipy_openblas_get_corename64_`), or "unknown"."""
    core = "unknown"
    for lib in glob.glob(os.path.join(os.path.dirname(numpy.__file__), os.pardir,
                                      "numpy.libs", "libscipy_openblas64_*")):
        name = getattr(ctypes.CDLL(lib), "scipy_openblas_get_corename64_", None)
        if name is not None:
            name.restype = ctypes.c_char_p
            core = name().decode()
    return core
