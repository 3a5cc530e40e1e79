"""The JS front end as it was before the regex scanner: the per-character
tokenizer and the scan-ahead arrow detection, kept verbatim (imports aside)
so that ``test_frontend_differential.py`` can compare the two."""
