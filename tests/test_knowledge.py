from __future__ import annotations

import random

import pytest

from ifcmcp.errors import EmptyIndex, IoError
from ifcmcp.knowledge import (
    CHUNK_MAX,
    CHUNK_OVERLAP,
    chunk_text,
    index_corpus,
    tokenize,
)


def test_tokenize_rules():
    assert tokenize("IfcWall, wall-axis; A1 x") == ["ifcwall", "wall", "axis", "a1"]
    assert tokenize("a b c") == []  # single chars dropped


def test_three_one_paragraph_files(tmp_path):
    for i in range(3):
        (tmp_path / f"doc{i}.md").write_text(f"paragraph number {i}",
                                             encoding="utf-8")
    index = index_corpus(tmp_path)
    assert len(index.chunks) == 3
    assert sorted(c.doc_id for c in index.chunks) == ["doc0.md", "doc1.md",
                                                      "doc2.md"]


def test_long_document_chunking_arithmetic():
    text = "x" * 120 + " " + "word " * 1000  # one ~5000-char paragraph
    text = text[:5000]
    chunks = chunk_text(text)
    # oracle: ceil((5000 - overlap) / (target - overlap)) = 6 windows minimum
    assert len(chunks) >= 5
    assert all(len(c) <= CHUNK_MAX for c in chunks)
    # consecutive chunks overlap
    for a, b in zip(chunks, chunks[1:]):
        assert a[-CHUNK_OVERLAP:][:50] in b[:CHUNK_OVERLAP + 60]


def test_paragraph_boundaries_respected():
    text = "first paragraph\n\nsecond paragraph\n\nthird paragraph"
    chunks = chunk_text(text)
    assert len(chunks) == 1  # they fit one target-size chunk together
    assert "first paragraph" in chunks[0]


def test_empty_directory(tmp_path):
    index = index_corpus(tmp_path)
    assert len(index.chunks) == 0
    with pytest.raises(EmptyIndex):
        index.search("anything")


def test_missing_directory():
    with pytest.raises(IoError):
        index_corpus("/nonexistent/path/here")


def test_unique_token_ranks_first(tmp_path):
    for i in range(10):
        body = f"generic building text number {i} walls and slabs"
        if i == 7:
            body += " zanzibar"
        (tmp_path / f"d{i}.md").write_text(body, encoding="utf-8")
    index = index_corpus(tmp_path)
    results = index.search("zanzibar")
    assert results[0][0].doc_id == "d7.md"
    assert len(results) == 1  # other chunks score zero and are dropped


def test_k_larger_than_corpus(tmp_path):
    for i in range(3):
        (tmp_path / f"d{i}.md").write_text(f"shared token alpha {i}",
                                           encoding="utf-8")
    index = index_corpus(tmp_path)
    assert len(index.search("alpha", k=50)) == 3


def test_absent_tokens_give_empty(tmp_path):
    (tmp_path / "d.md").write_text("walls and slabs", encoding="utf-8")
    index = index_corpus(tmp_path)
    assert index.search("nonexistent zebra") == []


def test_scores_non_increasing_and_deterministic(tmp_path):
    rng = random.Random(5)
    words = ["wall", "slab", "roof", "door", "window", "beam", "column"]
    for i in range(20):
        body = " ".join(rng.choice(words) for _ in range(60))
        (tmp_path / f"d{i:02d}.md").write_text(body, encoding="utf-8")
    index = index_corpus(tmp_path)
    first = index.search("wall roof", k=20)
    second = index.search("wall roof", k=20)
    assert [(c.doc_id, s) for c, s in first] == [(c.doc_id, s) for c, s in second]
    scores = [s for _c, s in first]
    assert scores == sorted(scores, reverse=True)


def test_tie_break_by_doc_and_chunk(tmp_path):
    for name in ("bbb.md", "aaa.md", "ccc.md"):
        (tmp_path / name).write_text("identical content here", encoding="utf-8")
    index = index_corpus(tmp_path)
    results = index.search("identical content", k=3)
    assert [c.doc_id for c, _s in results] == ["aaa.md", "bbb.md", "ccc.md"]


def test_tags_from_subdirectories(tmp_path):
    sub = tmp_path / "schema"
    sub.mkdir()
    (sub / "doc.md").write_text("entity definitions", encoding="utf-8")
    (tmp_path / "top.md").write_text("toplevel text", encoding="utf-8")
    index = index_corpus(tmp_path)
    by_doc = {c.doc_id: c for c in index.chunks}
    assert by_doc["schema/doc.md"].tags == ["schema"]
    assert by_doc["top.md"].tags == []
