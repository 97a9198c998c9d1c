"""A corpus of malformed ``.cdb`` files.

Load hardening contract: a file with a valid header but a damaged body
must fail with a *typed* :class:`~repro.errors.CorruptPageError` that
names the damaged relation or page — never an ``IndexError``,
``ValueError``, ``UnicodeDecodeError``, or silently wrong data.
"""

import pytest

from repro.errors import CorruptPageError
from repro.storage import load_database, loads

VALID = """# CQA/CDB database file
relation Land
attribute landId string relational
attribute x rational constraint
tuple landId="A" | 2 <= x, x <= 6
tuple landId="B" | 1 <= x, x <= 3
checksum 2 {crc}
end
"""


def valid_text() -> str:
    import zlib

    lines = [
        'tuple landId="A" | 2 <= x, x <= 6',
        'tuple landId="B" | 1 <= x, x <= 3',
    ]
    crc = f"{zlib.crc32(chr(10).join(lines).encode()) & 0xFFFFFFFF:08x}"
    return VALID.format(crc=crc)


class TestTruncatedBodies:
    def test_cut_before_end_directive(self):
        text = valid_text()
        torn = text[: text.rindex("end")]
        with pytest.raises(CorruptPageError, match="'Land' truncated"):
            loads(torn)

    def test_cut_mid_schema(self):
        text = valid_text()
        torn = text[: text.index("attribute x")]
        with pytest.raises(CorruptPageError, match="'Land' truncated"):
            loads(torn)

    def test_cut_mid_tuples_fails_checksum_count(self):
        text = valid_text()
        # Drop one tuple line but keep checksum+end: count mismatch.
        torn = text.replace('tuple landId="B" | 1 <= x, x <= 3\n', "")
        with pytest.raises(CorruptPageError, match="records 2 tuples"):
            loads(torn)


class TestBitRot:
    def test_flipped_digit_fails_crc(self):
        text = valid_text().replace("x <= 6", "x <= 7", 1)
        with pytest.raises(CorruptPageError, match="checksum mismatch"):
            loads(text)

    def test_binary_garbage_is_typed(self, tmp_path):
        path = tmp_path / "garbage.cdb"
        path.write_bytes(b"# CQA/CDB database file\nrelation R\n\xff\xfe\x00\x80 binary")
        with pytest.raises(CorruptPageError, match="not valid UTF-8"):
            load_database(path)

    def test_checksummed_roundtrip_still_loads(self):
        database = loads(valid_text())
        assert len(database["Land"]) == 2
