"""Scalar parity references (fixture)."""


def im2col_scalar(images):
    return images


def col2im_scalar(rows):
    return rows


def encode_scalar(table, channel):
    return b""


def decode_scalar(table, encoded):
    return []
