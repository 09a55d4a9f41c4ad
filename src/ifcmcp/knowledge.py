"""Lexical document retrieval: paragraph chunking + BM25 inverted index.

The scorer sits behind :class:`KnowledgeIndex.search` so an embedding
backend could be swapped in later without touching the tool surface.
"""

from __future__ import annotations

import math
import re
from collections import namedtuple
from pathlib import Path

from .errors import EmptyIndex, IoError

CHUNK_TARGET = 1000
CHUNK_MAX = 1500
CHUNK_OVERLAP = 200
BM25_K1 = 1.2
BM25_B = 0.75

_TOKEN_RE = re.compile(r"[a-z0-9]{2,}")


def tokenize(text: str) -> list[str]:
    """Lowercase alphanumeric tokens of length >= 2; no stemming."""
    return _TOKEN_RE.findall(text.lower())


# one retrievable piece of a document; ``tags`` is a list of strings
DocChunk = namedtuple("DocChunk", "doc_id chunk_index text source_path tags")


def chunk_text(text: str) -> list[str]:
    """Split into ~1000-char chunks on paragraph boundaries, 200-char overlap."""
    paragraphs = [p.strip() for p in re.split(r"\n\s*\n", text) if p.strip()]
    pieces: list[str] = []
    for para in paragraphs:
        if len(para) <= CHUNK_MAX - CHUNK_OVERLAP:
            pieces.append(para)
            continue
        window = CHUNK_TARGET
        step = window - CHUNK_OVERLAP
        for start in range(0, len(para), step):
            pieces.append(para[start:start + window])
            if start + window >= len(para):
                break

    chunks: list[str] = []
    current = ""
    for piece in pieces:
        candidate = f"{current}\n\n{piece}" if current else piece
        if current and len(candidate) > CHUNK_TARGET:
            chunks.append(current)
            current = current[-CHUNK_OVERLAP:] + "\n\n" + piece
            if len(current) > CHUNK_MAX:
                current = current[-CHUNK_MAX:]
        else:
            current = candidate
    if current:
        chunks.append(current)
    return chunks


class KnowledgeIndex:
    def __init__(self):
        self.chunks: list[DocChunk] = []
        self.postings: dict[str, dict[int, int]] = {}
        self.doc_lengths: list[int] = []
        self.avgdl = 0.0

    def add_document(self, doc_id: str, text: str, source_path: str = "",
                     tags: list[str] | None = None):
        for index, chunk in enumerate(chunk_text(text)):
            self.chunks.append(DocChunk(doc_id, index, chunk, source_path,
                                        list(tags or [])))

    def build(self):
        self.postings = {}
        self.doc_lengths = []
        for ordinal, chunk in enumerate(self.chunks):
            tokens = tokenize(chunk.text)
            self.doc_lengths.append(len(tokens))
            for token in tokens:
                slot = self.postings.setdefault(token, {})
                slot[ordinal] = slot.get(ordinal, 0) + 1
        total = sum(self.doc_lengths)
        self.avgdl = total / len(self.doc_lengths) if self.doc_lengths else 0.0

    def _idf(self, token: str) -> float:
        n = len(self.chunks)
        df = len(self.postings.get(token, ()))
        return math.log(1.0 + (n - df + 0.5) / (df + 0.5))

    def search(self, query: str, k: int = 5) -> list[tuple[DocChunk, float]]:
        """BM25 top-k; ties broken by (doc_id, chunk_index) ascending."""
        if not self.chunks:
            raise EmptyIndex("the knowledge index contains no chunks")
        scores: dict[int, float] = {}
        for token in sorted(set(tokenize(query))):
            postings = self.postings.get(token)
            if not postings:
                continue
            idf = self._idf(token)
            for ordinal, tf in postings.items():
                dl = self.doc_lengths[ordinal]
                norm = BM25_K1 * (1 - BM25_B + BM25_B * dl / self.avgdl)
                scores[ordinal] = scores.get(ordinal, 0.0) + \
                    idf * tf * (BM25_K1 + 1) / (tf + norm)
        ranked = sorted(
            scores.items(),
            key=lambda item: (-item[1], self.chunks[item[0]].doc_id,
                              self.chunks[item[0]].chunk_index),
        )
        return [(self.chunks[ordinal], score) for ordinal, score in ranked[:k]]


def index_corpus(root: str | Path) -> KnowledgeIndex:
    """Index every .md/.txt/.rst file under ``root`` (sorted, recursive)."""
    root = Path(root)
    if not root.is_dir():
        raise IoError(str(root), "not a readable directory")
    index = KnowledgeIndex()
    for path in sorted(root.rglob("*")):
        if not path.is_file() or path.suffix.lower() not in (".md", ".txt", ".rst"):
            continue
        try:
            text = path.read_text(encoding="utf-8")
        except OSError as exc:
            raise IoError(str(path), str(exc)) from exc
        except UnicodeDecodeError as exc:
            raise IoError(str(path), f"not UTF-8 text: {exc}") from exc
        relative = path.relative_to(root).as_posix()
        tags = [path.parent.name] if path.parent != root else []
        index.add_document(relative, text, source_path=relative, tags=tags)
    index.build()
    return index
