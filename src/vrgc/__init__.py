"""Lossless graph compression via extracted vertex-replacement grammars."""
