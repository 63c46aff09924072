"""Host-performance benchmark of the FA3C reproduction (see ``run.py``)."""
