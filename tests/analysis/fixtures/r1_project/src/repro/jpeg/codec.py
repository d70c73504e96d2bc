"""Codec fast path (fixture)."""


class _ChannelCoder:
    def entropy_code(self, blocks):
        return b""
