"""Built-in 8x8 bitmap font for printable ASCII, plus a fallback box.

The font is one read-only (96, 8, 8) bool table, ``BITMAPS``: the glyphs of
codepoints 32..126 in codepoint order, then the fallback box that every other
codepoint renders as. It is decoded once, at import, from ``_HEX``: 8 bytes
(16 hex digits) per glyph, one byte per pixel row from the top down, and the
most significant bit of a byte is the row's leftmost pixel.
"""

from __future__ import annotations

import numpy as np

_HEX = (
    "0000000000000000"  # space
    "1010101010001000"  # !
    "4848000000000000"  # "
    "2828fe28fe282800"  # #
    "103c503814781000"  # $
    "c2c4081020468600"  # %
    "304830728c847a00"  # &
    "1010000000000000"  # '
    "0810202020100800"  # (
    "2010080808102000"  # )
    "0054387c38540000"  # *
    "0010107c10100000"  # +
    "0000000000301020"  # ,
    "0000007c00000000"  # -
    "0000000000303000"  # .
    "0204081020408000"  # /
    "7c868a92a2c27c00"  # 0
    "1030101010107c00"  # 1
    "7c82020c3040fe00"  # 2
    "7c82021c02827c00"  # 3
    "0c142444fe040400"  # 4
    "fe80fc0202827c00"  # 5
    "7c8080fc82827c00"  # 6
    "fe04081020202000"  # 7
    "7c82827c82827c00"  # 8
    "7c82827e02027c00"  # 9
    "0030300030300000"  # :
    "0030300030102000"  # ;
    "0810204020100800"  # <
    "00007c007c000000"  # =
    "4020100810204000"  # >
    "7c82020c10001000"  # ?
    "7c82baaabc807c00"  # @
    "384482fe82828200"  # A
    "fc8282fc8282fc00"  # B
    "7c82808080827c00"  # C
    "fc8282828282fc00"  # D
    "fe8080f88080fe00"  # E
    "fe8080f880808000"  # F
    "7c82809e82827c00"  # G
    "828282fe82828200"  # H
    "7c10101010107c00"  # I
    "3e08080808887000"  # J
    "848890e090888400"  # K
    "808080808080fe00"  # L
    "82c6aa9282828200"  # M
    "82c2a2928a868200"  # N
    "7c82828282827c00"  # O
    "fc8282fc80808000"  # P
    "7c8282828a847a00"  # Q
    "fc8282fc88848200"  # R
    "7c82807c02827c00"  # S
    "fe10101010101000"  # T
    "8282828282827c00"  # U
    "8282824444281000"  # V
    "82828292aac68200"  # W
    "8244281028448200"  # X
    "8244281010101000"  # Y
    "fe0408102040fe00"  # Z
    "3820202020203800"  # [
    "8040201008040200"  # \
    "3808080808083800"  # ]
    "1028440000000000"  # ^
    "00000000000000fe"  # _
    "2010000000000000"  # `
    "000078047c847a00"  # a
    "8080f8848484f800"  # b
    "0000788480847800"  # c
    "04047c8484847c00"  # d
    "00007884fc807800"  # e
    "384040f040404000"  # f
    "007c84847c047800"  # g
    "8080f88484848400"  # h
    "2000602020207000"  # i
    "0800180808887000"  # j
    "80808890e0908800"  # k
    "6020202020207000"  # l
    "0000d0a8a8a8a800"  # m
    "0000b0c888888800"  # n
    "0000788484847800"  # o
    "00f88484f8808000"  # p
    "007c84847c040400"  # q
    "0000b8c080808000"  # r
    "00007c807804f800"  # s
    "2020f82020241800"  # t
    "0000888888986800"  # u
    "0000828244281000"  # v
    "0000828292aa4400"  # w
    "0000885020508800"  # x
    "0084847c04847800"  # y
    "0000f8102040f800"  # z
    "0c10102010100c00"  # {
    "1010101010101000"  # |
    "3008080408083000"  # }
    "0062928c00000000"  # ~
    "fe8282828282fe00"  # fallback box
)

BITMAPS = np.unpackbits(np.frombuffer(bytes.fromhex(_HEX), np.uint8)).astype(bool).reshape(96, 8, 8)
BITMAPS.setflags(write=False)


def glyph(ch: str) -> tuple[np.ndarray, bool]:
    """(bitmap, known) for one character; a character outside 32..126 gives the fallback box."""
    i = ord(ch) - 32
    if 0 <= i < 95:
        return BITMAPS[i], True
    return BITMAPS[95], False
