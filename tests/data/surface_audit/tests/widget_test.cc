#include "widget.h"

void Test() {
  WidgetOptions options;
  options.widget_call_init = 0.25;
  options.widget_default_only = 7;
}
