#!/usr/bin/env python
"""The six steps of building an access-method DataBlade (Section 4).

Run:  python examples/datablade_walkthrough.py

Performs each numbered step of the paper explicitly -- new data type,
purpose functions, access-method registration, operator class, storage
space, index creation -- then runs an INSERT and a SELECT with purpose-
function tracing enabled, printing the exact call sequences of Figure 6.
"""

from repro.datablade.blade import GRTreeDataBlade
from repro.datablade.bladesmith import (
    generate_register_script,
    generate_unregister_script,
)
from repro.datablade.register import register_grtree_blade
from repro.server import DatabaseServer
from repro.temporal.chronon import Clock


def main() -> None:
    server = DatabaseServer(clock=Clock(now=100))

    print("Step 5 first, as the paper notes it is an admin command:")
    print("  onspaces -c -S spc   ->  server.create_sbspace('spc')")
    server.create_sbspace("spc")

    print("\nSteps 1-4: the BladeSmith-generated registration script")
    print("(data type, CREATE FUNCTIONs, CREATE SECONDARY ACCESS_METHOD,")
    print("CREATE OPCLASS), run by the BladeManager stand-in:\n")
    script = generate_register_script(GRTreeDataBlade)
    for line in script.splitlines()[:14]:
        print("  " + line)
    print("  ... (%d statements total)\n" % script.count(";"))
    register_grtree_blade(server)

    print("Step 6: create a virtual index with CREATE INDEX:")
    server.execute("CREATE TABLE employees (name LVARCHAR, te GRT_TimeExtent_t)")
    create_index = (
        "CREATE INDEX grt_index ON employees(te grt_opclass) "
        "USING grtree_am IN spc"
    )
    print("  " + create_index)
    server.execute(create_index)
    server.prefer_virtual_index = True

    print("\nSYSAMS now lists:", server.catalog.access_methods.names())
    print("SYSINDICES now lists:", server.catalog.index_names())

    # Figure 6(a): the INSERT call sequence.
    server.trace.set_level("am", 1)
    server.execute(
        "INSERT INTO employees VALUES "
        "('Jane', '04/10/1900, UC, 04/05/1900, NOW')"
    )
    print("\nFigure 6(a) -- purpose functions called for INSERT:")
    for call in server.trace.texts("am"):
        print("  " + call)

    server.trace.clear()
    rows = server.execute(
        "SELECT name FROM employees "
        "WHERE Overlaps(te, '04/11/1900, UC, 04/11/1900, NOW')"
    )
    print("\nFigure 6(b) -- purpose functions called for SELECT:")
    for call in server.trace.texts("am"):
        print("  " + call)
    print("\nSELECT returned:", [r["name"] for r in rows])

    print("\nThe matching unregistration script begins:")
    for line in generate_unregister_script(GRTreeDataBlade).splitlines()[:4]:
        print("  " + line)


if __name__ == "__main__":
    main()
