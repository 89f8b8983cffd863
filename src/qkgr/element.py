"""Elements of QK(Gr(k, n)): integer combinations of q^d * O(partition).

Terms are stored sparsely as a dict mapping (partition, q_degree) to a
nonzero integer coefficient.  Elements are plain values; truncation is the
business of the operators producing them.
"""

from __future__ import annotations

import json

from .partitions import basis_key


class QKElement:
    """A finitely supported map (partition, q-degree) -> integer."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = {key: c for key, c in terms.items() if c} if terms else {}

    @classmethod
    def basis(cls, lam, d: int = 0) -> "QKElement":
        return cls({(tuple(lam), d): 1})

    def is_zero(self) -> bool:
        return not self.terms

    def coefficient(self, lam, d: int = 0) -> int:
        return self.terms.get((tuple(lam), d), 0)

    def min_q(self) -> int | None:
        """Smallest q-degree present, or None for the zero element."""
        if not self.terms:
            return None
        return min(d for _, d in self.terms)

    def max_q(self) -> int | None:
        if not self.terms:
            return None
        return max(d for _, d in self.terms)

    def q_shift(self, e: int) -> "QKElement":
        return QKElement({(lam, d + e): c for (lam, d), c in self.terms.items()})

    def q_slice(self, d: int) -> dict:
        return {lam: c for (lam, dd), c in self.terms.items() if dd == d}

    def truncated(self, trunc: int) -> "QKElement":
        return QKElement({k: c for k, c in self.terms.items() if k[1] <= trunc})

    def __eq__(self, other) -> bool:
        return isinstance(other, QKElement) and self.terms == other.terms

    def sorted_terms(self) -> list[tuple[tuple, int, int]]:
        """Terms as (partition, q_degree, coeff), in deterministic order."""
        return [
            (lam, d, self.terms[(lam, d)])
            for (lam, d) in sorted(self.terms, key=lambda k: (k[1],) + basis_key(k[0]))
        ]

    def __repr__(self):
        if not self.terms:
            return "0"
        chunks = []
        for lam, d, c in self.sorted_terms():
            body = "O(%s)" % ",".join(map(str, lam))
            if d == 1:
                body = "q*" + body
            elif d > 1:
                body = f"q^{d}*" + body
            if c == 1:
                chunk = body
            elif c == -1:
                chunk = "-" + body
            else:
                chunk = f"{c}*{body}"
            if chunks and not chunk.startswith("-"):
                chunk = "+ " + chunk
            elif chunk.startswith("-"):
                chunk = "- " + chunk[1:] if chunks else chunk
            chunks.append(chunk)
        return " ".join(chunks)

    def to_obj(self) -> dict:
        return {
            "terms": [
                {"q": d, "partition": list(lam), "coeff": c}
                for lam, d, c in self.sorted_terms()
            ]
        }

    @classmethod
    def from_obj(cls, obj) -> "QKElement":
        return cls(
            {(tuple(t["partition"]), t["q"]): t["coeff"] for t in obj["terms"]}
        )

    @classmethod
    def from_json(cls, text: str) -> "QKElement":
        return cls.from_obj(json.loads(text))
