"""Tools for a three-parameter family of two-qutrit Bell-diagonal states.

The package classifies family members as separable, bound entangled, NPT
entangled, or undetermined, using stacked sound certificates: closed-form
positivity, the closed-form partial-transpose spectrum, a battery of
constructed entanglement witnesses, and an inner polytope of separable
states.  See :mod:`magicsimplex.regions` for the pipeline,
:mod:`magicsimplex.planes` for the closed-form witness planes and
:mod:`magicsimplex.witness` for the matrix construction that checks them.

The package root exports nothing but ``__version__`` and imports none of
its modules: every name is imported from the module that defines it, e.g.
``from magicsimplex.regions import classify``.

The production modules (``verdicts``, ``family``, ``planes``, ``regions``,
``cli``) import only the standard library; none of them loads numpy, and
no command but ``witness --name`` and ``verify`` does.  Nor do they load
:mod:`logging`, :mod:`json` or :mod:`fractions`: ``json`` loads only for
JSON output, ``logging`` only under ``MAGIC_SIMPLEX_LOG`` or once the
host has imported it.  Every record is a ``NamedTuple``, so no module
loads :mod:`dataclasses`.  The package logs to the ``magicsimplex.*``
loggers at DEBUG and INFO, with no handler.  The matrix oracle
(``qmat``, ``weyl``, ``witness``, ``checks``) needs numpy, e.g.
``from magicsimplex.witness import deployed_witnesses``.
"""

__version__ = "0.1.0"
