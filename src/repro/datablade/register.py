"""BladeManager stand-in: registering the GR-tree DataBlade (Section 6.1).

Registration mirrors what happens when BladeManager runs the generated
SQL scripts against a database: the shared library's symbols become
CREATE FUNCTION targets, the opaque type is registered (the type support
functions are native code, so they are installed through the type
registry directly), and the access method, operator class, and the
blade's metadata table are created.  Unregistration reverses all of it.
"""

from __future__ import annotations

from repro.datablade import bladesmith
from repro.datablade.blade import GRTreeDataBlade
from repro.datablade.time_extent import TYPE_NAME, make_time_extent_type


def register_grtree_blade(
    server, time_horizon: int = 20, handle_cache: bool = True
) -> GRTreeDataBlade:
    """Install the GR-tree DataBlade into *server*; returns the blade.

    The buffer pool size comes from the server-wide setting
    (``DatabaseServer(buffer_capacity=...)``) or a ``CREATE INDEX ...
    WITH (...)`` clause; ``handle_cache=False``
    restores the paper's literal behaviour of rebuilding the Tree object
    on every ``grt_open``.
    """
    # Step 1 (Section 4): the new data type and its support functions.
    server.types.register(make_time_extent_type(server.clock.granularity))
    # Steps 2-4 plus the blade's metadata table, via the generated script.
    return GRTreeDataBlade(
        server, time_horizon=time_horizon, handle_cache=handle_cache
    ).install()


def unregister_grtree_blade(server) -> None:
    """Remove every object the registration script created."""
    for info in list(server.catalog.index_names()):
        index = server.catalog.get_index(info)
        if index.am_name.lower() == GRTreeDataBlade.AM_NAME:
            raise RuntimeError(
                f"index {index.name} still uses {GRTreeDataBlade.AM_NAME}; "
                "drop it before unregistering the DataBlade"
            )
    script = bladesmith.generate_unregister_script(GRTreeDataBlade)
    with server.provisioning():
        server.run_script(script)
    server.types.unregister(TYPE_NAME)
