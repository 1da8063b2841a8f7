"""Setup shim for editable installs on environments without the wheel package.

Also builds the optional compiled NoC reservation kernel
(``repro._nockernel``, one C file, no dependencies).  The extension is
strictly optional: ``Extension(optional=True)`` means a missing compiler
degrades to a pure-Python install, and setting ``$REPRO_NO_CEXT=1`` skips
the build entirely.  At runtime :mod:`repro.noc.kernel` falls back to the
``reference`` backend whenever the extension is absent, and the kernel
choice is excluded from RunSpec digests, so builds with and without the
extension are cache- and fingerprint-compatible.

Build in place for a source checkout::

    python setup.py build_ext --inplace
"""

import os

from setuptools import Extension, setup

ext_modules = []
if os.environ.get("REPRO_NO_CEXT", "") != "1":
    ext_modules.append(
        Extension(
            "repro._nockernel",
            sources=["src/repro/_nockernel.c"],
            optional=True,
        )
    )

# package_dir makes ``build_ext --inplace`` drop the shared object next to
# the sources in src/repro/ (where ``PYTHONPATH=src`` imports find it).
setup(package_dir={"": "src"}, ext_modules=ext_modules)
