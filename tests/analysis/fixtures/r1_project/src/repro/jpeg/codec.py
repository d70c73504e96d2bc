"""Codec with fast and scalar paths (fixture)."""


class _ChannelCoder:
    def entropy_code(self, blocks):
        return b""

    def encode_scalar(self, channel):
        return b""

    def decode_scalar(self, encoded):
        return []
